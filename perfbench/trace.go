package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"openei/internal/serving"
	"openei/internal/tensor"
)

// span is one timed call into a layer on behalf of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Rid    int    `json:"rid"`
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// servingObs is what one traced Engine.Infer call reported.
type servingObs struct {
	call   time.Duration
	queued time.Duration
	batch  int
	shed   bool
}

// tracer keeps spans in memory during the traced phase. Layers that do
// not see the request id find it through the in-flight registry: the
// client registers each request under a key its downstream hops can
// recompute from what they see (the raw query, or the input tensor).
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	inflight map[int][]int
	serving  []servingObs
	appends  []time.Duration
	pending  []float64

	attempts atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), inflight: map[int][]int{}}
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.serving = t.serving[:0]
	t.appends = t.appends[:0]
	t.mu.Unlock()
	t.attempts.Store(0)
}

// samplePending records gauge() every 2 ms until the returned stop
// function is called; stop returns once the sampler has exited.
func (t *tracer) samplePending(gauge func() int) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				v := float64(gauge())
				t.mu.Lock()
				t.pending = append(t.pending, v)
				t.mu.Unlock()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func key(route, input int) int { return route<<20 | input }

func (t *tracer) register(k, rid int) {
	t.mu.Lock()
	t.inflight[k] = append(t.inflight[k], rid)
	t.mu.Unlock()
}

func (t *tracer) unregister(k, rid int) {
	t.mu.Lock()
	l := t.inflight[k]
	for i, r := range l {
		if r == rid {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = l
	}
	t.mu.Unlock()
}

// resolve returns the oldest in-flight request under k, or -1. Two
// requests with the same input in flight at once are rare; when it
// happens their spans may be swapped, which moves neither distribution.
func (t *tracer) resolve(k int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.inflight[k]; len(l) > 0 {
		return l[0]
	}
	return -1
}

func (t *tracer) add(rid int, name, route string, start, end time.Time) {
	if rid < 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Rid: rid, Name: name, Route: route,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

func (t *tracer) addServing(o servingObs) {
	t.mu.Lock()
	t.serving = append(t.serving, o)
	t.mu.Unlock()
}

func (t *tracer) addAppend(d time.Duration) {
	t.mu.Lock()
	t.appends = append(t.appends, d)
	t.mu.Unlock()
}

// link sets each span's parent to the shortest other span of the same
// request that encloses it.
func (t *tracer) link() {
	byRid := map[int][]int{}
	for i, s := range t.spans {
		byRid[s.Rid] = append(byRid[s.Rid], i)
	}
	for _, idx := range byRid {
		for _, i := range idx {
			s := &t.spans[i]
			best := -1
			for _, j := range idx {
				o := t.spans[j]
				if j == i || o.Start > s.Start || o.End < s.End || (o.dur() == s.dur() && j > i) {
					continue
				}
				if best < 0 || o.dur() < t.spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = t.spans[best].ID
			}
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of it
// covered by its children. Call after link.
func (t *tracer) selfTimes() map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		out[s.ID] = s.dur() - covered(children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, hi int64
	lo := int64(-1)
	for _, s := range ss {
		switch {
		case lo < 0:
			lo, hi = s.Start, s.End
		case s.Start > hi:
			total += hi - lo
			lo, hi = s.Start, s.End
		case s.End > hi:
			hi = s.End
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines under dir, after a header line
// naming the run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+strconv.FormatInt(seed, 10)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": len(t.spans)}); err != nil {
		f.Close()
		return "", err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedHandler times an http.Handler as layer name. The request id comes
// from the client's header when the layer is the first hop, else from the
// registry under the key keyOf derives from the request.
func (t *tracer) tracedHandler(name string, h http.Handler, keyOf func(*http.Request) (key int, route string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, rt := keyOf(r)
		rid := -1
		if v := r.Header.Get(ridHeader); v != "" {
			rid, _ = strconv.Atoi(v)
		} else if k >= 0 {
			rid = t.resolve(k)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(rid, name, rt, start, time.Now())
	})
}

// tracedTransport times the gateway's calls to the node and counts the
// proxied attempts; health probes pass through uncounted.
type tracedTransport struct {
	t     *tracer
	base  http.RoundTripper
	keyOf func(*http.Request) int
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	k := tt.keyOf(r)
	if k < 0 {
		return tt.base.RoundTrip(r)
	}
	tt.t.attempts.Add(1)
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	tt.t.add(tt.t.resolve(k), "transport", "", start, time.Now())
	return resp, err
}

// tracedInferer times the serving engine behind the node's infer route.
type tracedInferer struct {
	t     *tracer
	e     *serving.Engine
	keyOf func(*tensor.Tensor) int
}

func (ti *tracedInferer) Infer(ctx context.Context, model string, x *tensor.Tensor) (serving.Result, error) {
	rid := ti.t.resolve(ti.keyOf(x))
	return ti.t.timeServing(rid, func() (serving.Result, error) { return ti.e.Infer(ctx, model, x) })
}

func (ti *tracedInferer) InferWithDeadline(model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	rid := ti.t.resolve(ti.keyOf(x))
	return ti.t.timeServing(rid, func() (serving.Result, error) { return ti.e.InferWithDeadline(model, x, d) })
}

// timeServing records a serving span and the engine's own account of the
// call: queue time, batch size, and whether the request was shed.
func (t *tracer) timeServing(rid int, call func() (serving.Result, error)) (serving.Result, error) {
	start := time.Now()
	res, err := call()
	end := time.Now()
	t.add(rid, "serving", "", start, end)
	t.addServing(servingObs{call: end.Sub(start), queued: res.Queued, batch: res.BatchSize, shed: err != nil})
	return res, err
}
