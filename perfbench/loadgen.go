package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// arrival is one scheduled request: when it is due, relative to the start
// of the phase, which of the workload's routes it takes, and which input
// of that route's seeded set it carries.
type arrival struct {
	due   time.Duration
	route int
	input int
}

// route is one kind of request in a workload's mix.
type route struct {
	name   string
	share  float64 // fraction of arrivals
	inputs int     // size of the route's seeded input set
}

// poissonSchedule draws Poisson arrivals at rate per second over span,
// assigning each a route by share and an input uniformly. The same rng
// state always gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration, routes []route) []arrival {
	var total float64
	for _, r := range routes {
		total += r.share
	}
	out := make([]arrival, 0, int(rate*span.Seconds()*1.2)+16)
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		pick := rng.Float64() * total
		ri := 0
		for ri < len(routes)-1 && pick >= routes[ri].share {
			pick -= routes[ri].share
			ri++
		}
		out = append(out, arrival{due: due, route: ri, input: rng.Intn(routes[ri].inputs)})
	}
}

// scheduleHash fingerprints a schedule, so the output of two runs shows
// whether they replayed the same arrivals.
func scheduleHash(sched []arrival) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, a := range sched {
		binary.LittleEndian.PutUint64(b[0:], uint64(a.due))
		binary.LittleEndian.PutUint64(b[8:], uint64(a.route))
		binary.LittleEndian.PutUint64(b[16:], uint64(a.input))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// outcome is what happened to one arrival.
type outcome struct {
	late    time.Duration // dispatch time minus due time
	latency time.Duration // completion time minus due time
	err     error
}

// requester performs one request on worker slot; slots never run two
// requests at once, so a slot may own scratch buffers.
type requester func(slot, id int, a arrival) error

// drive runs an open-loop schedule: one dispatcher releases each arrival
// at its due time to a fixed set of worker slots, whatever the state of
// earlier requests. An arrival that finds every slot busy waits in the
// client, and that wait counts toward its latency, which is measured
// from the due time. drive returns when every arrival has completed.
func drive(sched []arrival, slots int, do requester) []outcome {
	outs := make([]outcome, len(sched))
	// Sized to the schedule so the dispatcher never blocks on a send and
	// its lateness measures only the generator itself.
	jobs := make(chan int, len(sched))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range jobs {
				err := do(slot, i, sched[i])
				outs[i].latency = time.Since(start.Add(sched[i].due))
				outs[i].err = err
			}
		}(s)
	}
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns 0 for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
