package main

import "time"

// openLoop issues requests on a fixed schedule, independent of how fast the
// system answers: request i is due at start + i·interval, and the run issues
// every request due before start + span. One stream sends on one connection,
// so a request whose predecessor is still running waits for it; that wait
// counts against the system, because latency is timed from the due time.
type openLoop struct {
	start    time.Time
	interval time.Duration
	span     time.Duration
}

// count is the number of requests the schedule issues.
func (o openLoop) count() int {
	if o.interval <= 0 || o.span <= 0 {
		return 0
	}
	return int((o.span + o.interval - 1) / o.interval)
}

// due is request i's scheduled send time.
func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// sample is one request's timing on an open-loop stream.
type sample struct {
	// latency runs from the due time to the reply.
	latency time.Duration
	// service runs from the actual send to the reply.
	service time.Duration
	// late is the generator's own delay: the send time minus the later of
	// the due time and the moment the stream was free to send.
	late time.Duration
}

// account times one request from its due time. free is when the stream's
// previous request completed, sent and done bracket this one.
func account(due, free, sent, done time.Time) sample {
	ready := due
	if free.After(ready) {
		ready = free
	}
	late := sent.Sub(ready)
	if late < 0 {
		late = 0
	}
	return sample{latency: done.Sub(due), service: done.Sub(sent), late: late}
}

// run drives the stream: it sleeps until each due time (or sends at once
// when behind), calls do(i), and records the request's timing. It stops
// early when do reports stop.
func (o openLoop) run(do func(i int) (stop bool)) []sample {
	n := o.count()
	out := make([]sample, 0, n)
	free := o.start
	for i := 0; i < n; i++ {
		due := o.due(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		stop := do(i)
		done := time.Now()
		out = append(out, account(due, free, sent, done))
		free = done
		if stop {
			break
		}
	}
	return out
}
