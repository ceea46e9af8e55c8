package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the intended send offsets of an open-loop
// Poisson arrival process at rate per second over dur, conditioned on its
// count: round(rate·dur) arrival times drawn uniformly from rng and
// sorted. The same seed gives the same schedule, and every run of a
// workload sends the same number of requests.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(sched)
	return sched
}

// outcome is one request's record: offsets from the phase start of when it
// was due, when it was actually sent and when its response was read.
type outcome struct {
	due, sent, done time.Duration
	// late is how far past its due time the generator woke to send it; -1
	// when the request was already overdue because every connection was
	// busy (that wait is the server's, and is in the latency).
	late   time.Duration
	status int
	err    error
	body   []byte // kept only for sampled requests
}

// latency is the request's time from its intended send time to its
// response, so a stall also charges the requests queued behind it.
func (o *outcome) latency() time.Duration { return o.done - o.due }

func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// sleepUntil blocks until the monotonic deadline. It uses nanosleep rather
// than time.Sleep, whose sub-millisecond sleeps overshoot by about 1 ms on
// Linux, and first drops the sleeping thread's timer slack from the
// default 50us to 1ns; both would show up as generator lateness.
func sleepUntil(start time.Time, at time.Duration) {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for {
		d := at - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// generatorNice is the nice value of the generator's threads.
const generatorNice = -10

// stream is one open-loop request stream driven over its own connections.
type stream struct {
	name  string
	sched []time.Duration
	conns []*conn
	// request builds request i.
	request func(i int) request
	// keep reports whether request i's body is retained for verification.
	keep func(i int) bool
	// closed sends each request as soon as a connection is free and times
	// it from its actual send: a closed loop with no intended times.
	closed bool
	// With stopAfter > 0 the stream stops sending once stopAfter of its
	// requests have taken longer than slow: a ladder rung whose p99 is
	// already over its limit need not drain the rest of its backlog.
	slow      time.Duration
	stopAfter int
	// until, when set, is checked before each send; the stream stops once
	// it returns true.
	until func() bool
	// out holds the outcomes of the requests sent, in schedule order.
	out []outcome
}

// runStream drives s and returns once it has sent its whole schedule, or
// stopped early, and read every reply.
func runStream(s *stream) {
	// The harness's own collector would pause the generator mid-window and
	// charge the pause to the server; collect before the window instead.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	s.out = make([]outcome, len(s.sched))
	var next, slow atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			// The generator shares two cores with the server. Its own
			// threads run at a raised priority so that the server's threads
			// cannot delay a due send or the read of a reply; where that is
			// not permitted it runs at the default. The goroutine never
			// unlocks its thread, so the runtime ends the thread, and its
			// priority, when the goroutine returns.
			runtime.LockOSThread()
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, generatorNice)
			var buf bytes.Buffer
			for !stop.Load() {
				if s.until != nil && s.until() {
					stop.Store(true)
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(s.sched) {
					return
				}
				o := &s.out[i]
				o.due = s.sched[i]
				o.late = -1
				if s.closed {
					o.due = time.Since(start)
				}
				if time.Since(start) < o.due {
					sleepUntil(start, o.due)
					o.late = time.Since(start) - o.due
				}
				o.sent = time.Since(start)
				o.status, o.err = c.do(s.request(i), &buf)
				o.done = time.Since(start)
				if o.err == nil && s.keep != nil && s.keep(i) {
					o.body = append([]byte(nil), buf.Bytes()...)
				}
				if s.stopAfter > 0 && o.latency() > s.slow && slow.Add(1) >= int64(s.stopAfter) {
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	// Requests are claimed in schedule order, so the ones sent are a prefix.
	s.out = s.out[:min(int(next.Load()), len(s.sched))]
}

// phaseCount is the failure and validity accounting of one phase.
type phaseCount struct {
	Attempted int            `json:"attempted"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	Status    map[string]int `json:"status"`
	Errors    []string       `json:"errors,omitempty"`
}

func (p *phaseCount) add(out []outcome) {
	if p.Status == nil {
		p.Status = map[string]int{}
	}
	for i := range out {
		o := &out[i]
		p.Attempted++
		if o.err != nil {
			p.Status["transport_error"]++
			if len(p.Errors) < 5 {
				p.Errors = append(p.Errors, o.err.Error())
			}
		} else {
			p.Status[fmt.Sprint(o.status)]++
		}
		if o.ok() {
			p.Succeeded++
		} else {
			p.Failed++
		}
	}
}

// quantile returns the q-quantile of sorted xs by rank floor(q·len), the
// convention of the repo's own histograms.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// latencies returns the sorted latencies of the successful outcomes, in
// the given unit.
func latencies(out []outcome, unit time.Duration) []float64 {
	xs := make([]float64, 0, len(out))
	for i := range out {
		if out[i].ok() {
			xs = append(xs, float64(out[i].latency())/float64(unit))
		}
	}
	sort.Float64s(xs)
	return xs
}

// lateness returns the sorted generator lateness of the requests the
// generator had to wake up for, in microseconds.
func lateness(out []outcome) []float64 {
	xs := make([]float64, 0, len(out))
	for i := range out {
		if out[i].late >= 0 {
			xs = append(xs, float64(out[i].late)/float64(time.Microsecond))
		}
	}
	sort.Float64s(xs)
	return xs
}

// drained reports whether the median latency of the window's last
// tailSamples requests is within limit: a schedule the server keeps up
// with ends with a short queue, one it falls behind on ends with a
// backlog that every late request waits behind.
func drained(out []outcome, limit time.Duration) bool {
	lat := latencies(out[max(0, len(out)-tailSamples):], time.Nanosecond)
	return len(lat) == 0 || time.Duration(quantile(lat, 0.5)) <= limit
}

// tailSamples is how many of a window's last requests drained looks at.
const tailSamples = 1000
