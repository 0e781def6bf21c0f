package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"openei/internal/parallel"
)

const (
	// setupsBefore and setupsAfter are how many times an untraced run
	// deploys the node before and after the measured phase; setup_s is
	// the median over all of them. Spreading them over the run keeps one
	// moment of a noisy host from setting the figure.
	setupsBefore = 12
	setupsAfter  = 13
	// windowSize is the number of arrivals per latency window: the
	// reported percentiles are medians over windows, so one slow episode
	// on a shared host moves a few windows, not the run. 250 arrivals
	// leave 25 samples beyond the 90th percentile of each window.
	windowSize = 250
	// warmup is the unmeasured schedule run before each measured phase,
	// so lazy set-up and heap growth settle first.
	warmup = time.Second
	// spanDir receives the traced run's spans, inside the checkout.
	spanDir = ".bench_build/spans"
)

// phase is one measured schedule and the counters read around it.
type phase struct {
	outs        []outcome
	attempted   int
	failed      int
	wrong       int
	mallocs     uint64
	numGC       uint32
	heapLive    uint64
	cpu         time.Duration
	wall        time.Duration
	par0, par1  parallel.Stats
	withinLimit int
	schedule    uint64 // scheduleHash of the measured arrivals
}

// windowed returns the median over consecutive windows of windowSize
// arrivals of each window's q-quantile latency, over answered requests.
func (p *phase) windowed(q float64) float64 {
	k := len(p.outs) / windowSize
	if k < 1 {
		k = 1
	}
	var per []float64
	for w := 0; w < k; w++ {
		lo, hi := w*len(p.outs)/k, (w+1)*len(p.outs)/k
		var lat []float64
		for _, o := range p.outs[lo:hi] {
			if o.err == nil {
				lat = append(lat, ms(o.latency))
			}
		}
		per = append(per, quantile(lat, q))
	}
	return quantile(per, 0.5)
}

// runPhase plays the seed's warm-up and measured schedules against e.
// With a tracer, every measured request gets a client span and is
// registered for the layers downstream; warm-up spans are discarded.
func runPhase(w *workload, e *env, seed int64, span time.Duration, tr *tracer) *phase {
	slots := w.slots
	if slots == 0 {
		slots = runtime.NumCPU()
	}
	warm := poissonSchedule(rand.New(rand.NewSource(seed^0x5eed)), w.rate, warmup, w.routes)
	sched := poissonSchedule(rand.New(rand.NewSource(seed)), w.rate, span, w.routes)
	drive(warm, slots, func(slot, id int, a arrival) error { return e.do(slot, -1, a) })

	do := e.do
	if tr != nil {
		tr.reset()
		do = func(slot, id int, a arrival) error {
			k := key(a.route, a.input)
			tr.register(k, id)
			start := time.Now()
			err := e.do(slot, id, a)
			tr.add(id, "client", w.routes[a.route].name, start, time.Now())
			tr.unregister(k, id)
			return err
		}
	}
	runtime.GC()
	p := &phase{attempted: len(sched), schedule: scheduleHash(sched)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	p.par0 = parallel.Snapshot()
	t0 := time.Now()
	p.outs = drive(sched, slots, do)
	p.wall = time.Since(t0)
	p.par1 = parallel.Snapshot()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.numGC = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapLive = m1.HeapAlloc

	for _, o := range p.outs {
		switch {
		case o.err == nil:
			if o.latency <= w.slo {
				p.withinLimit++
			}
		case errors.Is(o.err, errWrong):
			p.wrong++
			p.failed++
		default:
			p.failed++
		}
	}
	return p
}

// firstError returns the first failed request's error, for the log.
func (p *phase) firstError() error {
	for _, o := range p.outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runUntraced times cold starts of the node before and after the
// measured phase, and measures the schedule on the last deployment made
// before it.
func runUntraced(w *workload, seed int64, span time.Duration) (result, error) {
	fx, err := w.prepare(seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	deploy := func() (*env, error) {
		runtime.GC()
		t0 := time.Now()
		e, err := fx.setup(nil)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return e, err
	}
	var e *env
	for k := 0; k < setupsBefore; k++ {
		if e != nil {
			e.close()
		}
		if e, err = deploy(); err != nil {
			return result{}, err
		}
	}
	p := runPhase(w, e, seed, span, nil)
	e.close()
	logFailures(p)
	for k := 0; k < setupsAfter; k++ {
		if e, err = deploy(); err != nil {
			return result{}, err
		}
		e.close()
	}

	n := float64(p.attempted)
	return result{
		schedule:  p.schedule,
		Correct:   p.wrong == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":        {quantile(setups, 0.5), "s"},
			"latency_p50_ms": {p.windowed(0.50), "ms"},
			"latency_p90_ms": {p.windowed(0.90), "ms"},
			"throughput_rps": {float64(p.attempted-p.failed) / span.Seconds(), "req/s"},
			"slo_attainment": {float64(p.withinLimit) / n, "frac"},
			"allocs_per_req": {float64(p.mallocs) / n, "count"},
			"heap_live_mb":   {float64(p.heapLive) / 1e6, "MB"},
		},
	}, nil
}

func logFailures(p *phase) {
	if err := p.firstError(); err != nil {
		fmt.Printf("failed=%d wrong=%d first error: %v\n", p.failed, p.wrong, err)
	}
}

// runTraced measures the schedule untraced for half the time, then
// traced on a fresh deployment with the same schedule, and derives the
// per-layer metrics from the spans, the side passes and the counters.
func runTraced(w *workload, seed int64, span time.Duration) (result, error) {
	fx, err := w.prepare(seed)
	if err != nil {
		return result{}, err
	}
	half := span / 2
	out := map[string]float64{}

	e, err := fx.setup(nil)
	if err != nil {
		return result{}, err
	}
	a := runPhase(w, e, seed, half, nil)
	if e.ladder != nil {
		var hops map[string]float64
		if hops, err = e.ladder(); err != nil {
			e.close()
			return result{}, err
		}
		for k, v := range hops {
			out[k] = v
		}
	}
	e.close()
	logFailures(a)

	tr := newTracer(int(w.rate * half.Seconds() * 6))
	e, err = fx.setup(tr)
	if err != nil {
		return result{}, err
	}
	stopSampling := func() {}
	if e.pending != nil {
		stopSampling = tr.samplePending(e.pending)
	}
	b := runPhase(w, e, seed, half, tr)
	stopSampling()
	if e.history != nil {
		out["datastore.history_samples"] = float64(e.history())
	}
	if err := timePlans(e.node.Manager, e.plans, out); err != nil {
		e.close()
		return result{}, err
	}
	if e.walk != nil {
		if out["pkgmgr.walk_ms_p50"], err = timeWalk(e.node.Manager, e.walk); err != nil {
			e.close()
			return result{}, err
		}
	}
	e.close()
	logFailures(b)

	tr.link()
	layerMetrics(tr, out)
	n := float64(a.attempted)
	out["loadgen.late_ms_p99"] = lateP99(a)
	out["client.latency_p99_ms"] = a.p99()
	out["process.cpu_ms_per_req"] = ms(a.cpu) / n
	out["process.gc_cycles_per_1k_req"] = float64(a.numGC) * 1000 / n
	if jobs := a.par1.ParallelJobs - a.par0.ParallelJobs; jobs > 0 || a.par1.SerialJobs > a.par0.SerialJobs {
		serial := a.par1.SerialJobs - a.par0.SerialJobs
		out["parallel.utilization"] = (a.par1.BusyMS - a.par0.BusyMS) / (ms(a.wall) * float64(a.par1.Workers))
		out["parallel.parallel_jobs_per_req"] = float64(jobs) / n
		out["parallel.serial_frac"] = float64(serial) / float64(serial+jobs)
	}
	if pa := a.windowed(0.5); pa > 0 {
		out["trace.overhead_p50_frac"] = b.windowed(0.5)/pa - 1
	}
	path, err := tr.write(spanDir, w.name, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %s\n", path)

	res := result{
		schedule:  a.schedule,
		Correct:   a.wrong == 0 && b.wrong == 0,
		Attempted: a.attempted + b.attempted,
		Failed:    a.failed + b.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: out[m.name], Unit: m.unit}
	}
	return res, nil
}

// p99 is the 99th percentile latency of the phase's answered requests,
// over the whole phase. A steal episode on a shared host moves it by more
// than any bound, so it is reported only from the traced run.
func (p *phase) p99() float64 {
	var lat []float64
	for _, o := range p.outs {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
		}
	}
	return quantile(lat, 0.99)
}

func lateP99(p *phase) float64 {
	late := make([]float64, len(p.outs))
	for i, o := range p.outs {
		late[i] = ms(o.late)
	}
	return quantile(late, 0.99)
}

// perLayer lists every per-layer metric. A layer the workload does not
// reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_ms_p99", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"gateway.self_ms_p50", "ms"},
	{"gateway.upstream_ms_p50", "ms"},
	{"gateway.attempts_per_req", "count"},
	{"gateway.allocs_per_req", "count"},
	{"transport.allocs_per_req", "count"},
	{"libei.allocs_per_req", "count"},
	{"libei.self_ms_p50", "ms"},
	{"serving.allocs_per_req", "count"},
	{"serving.call_ms_p50", "ms"},
	{"serving.queued_ms_p50", "ms"},
	{"serving.run_ms_p50", "ms"},
	{"serving.batch_size_mean", "count"},
	{"serving.shed_frac", "frac"},
	{"plan.batch1_us.mlp", "us"},
	{"plan.batch8_us.alexnet-m", "us"},
	{"plan.batch8_us.squeezenet-m-int8", "us"},
	{"plan.exec_gflops", "GFLOP/s"},
	{"parallel.utilization", "frac"},
	{"parallel.parallel_jobs_per_req", "count"},
	{"parallel.serial_frac", "frac"},
	{"pkgmgr.walk_ms_p50", "ms"},
	{"pkgmgr.pending_jobs_mean", "count"},
	{"apps.safety_ms_p50", "ms"},
	{"apps.home_ms_p50", "ms"},
	{"apps.health_ms_p50", "ms"},
	{"apps.vehicles_ms_p50", "ms"},
	{"datastore.append_us_p50", "us"},
	{"datastore.append_us_p99", "us"},
	{"datastore.read_ms_p50", "ms"},
	{"datastore.history_samples", "count"},
	{"process.cpu_ms_per_req", "ms"},
	{"process.gc_cycles_per_1k_req", "count"},
	{"trace.overhead_p50_frac", "frac"},
}

// layerMetrics derives the span-based metrics: self times, the
// gateway's upstream time and attempts, the serving engine's own account
// of queueing and batching, per-route handler times, and datastore
// append times.
func layerMetrics(tr *tracer, out map[string]float64) {
	self := tr.selfTimes()
	var gwSelf, gwUp, libeiSelf []float64
	routes := map[string][]float64{}
	for _, s := range tr.spans {
		switch s.Name {
		case "gateway":
			gwSelf = append(gwSelf, ms(self[s.ID]))
			gwUp = append(gwUp, ms(s.dur()-self[s.ID]))
		case "libei":
			if s.Route == "infer" {
				libeiSelf = append(libeiSelf, ms(self[s.ID]))
			} else {
				routes[s.Route] = append(routes[s.Route], ms(s.dur()))
			}
		}
	}
	if len(gwSelf) > 0 {
		out["gateway.self_ms_p50"] = quantile(gwSelf, 0.5)
		out["gateway.upstream_ms_p50"] = quantile(gwUp, 0.5)
		out["gateway.attempts_per_req"] = float64(tr.attempts.Load()) / float64(len(gwSelf))
	}
	out["libei.self_ms_p50"] = quantile(libeiSelf, 0.5)
	for _, r := range []string{"safety", "home", "health", "vehicles"} {
		out["apps."+r+"_ms_p50"] = quantile(routes[r], 0.5)
	}
	out["datastore.read_ms_p50"] = quantile(routes["data"], 0.5)

	var call, queued, run, batch []float64
	shed := 0
	for _, o := range tr.serving {
		if o.shed {
			shed++
			continue
		}
		call = append(call, ms(o.call))
		queued = append(queued, ms(o.queued))
		run = append(run, ms(o.call-o.queued))
		batch = append(batch, float64(o.batch))
	}
	if len(tr.serving) > 0 {
		out["serving.call_ms_p50"] = quantile(call, 0.5)
		out["serving.queued_ms_p50"] = quantile(queued, 0.5)
		out["serving.run_ms_p50"] = quantile(run, 0.5)
		out["serving.batch_size_mean"] = mean(batch)
		out["serving.shed_frac"] = float64(shed) / float64(len(tr.serving))
	}
	appends := make([]float64, len(tr.appends))
	for i, d := range tr.appends {
		appends[i] = us(d)
	}
	out["datastore.append_us_p50"] = quantile(appends, 0.5)
	out["datastore.append_us_p99"] = quantile(appends, 0.99)
	out["pkgmgr.pending_jobs_mean"] = mean(tr.pending)
}
