package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"openei"
	"openei/internal/libei"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

// ladderCalls is the number of sequential requests per rung of the hop
// ladder; sidePass bounds the time spent timing each plan or walk case.
const (
	ladderCalls = 200
	sidePass    = 400 * time.Millisecond
)

// allocsPer returns the mean runtime mallocs per call over n sequential
// calls, after a short warm-up.
func allocsPer(n int, call func(i int) error) (float64, error) {
	for i := 0; i < 20; i++ {
		if err := call(i); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := call(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// recorder is a reusable http.ResponseWriter for calling a handler
// directly.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// hopLadder counts mallocs per infer request at four points of the
// gateway path, one request at a time: the engine in-process, the libei
// handler called directly, the node over loopback HTTP, and the gateway
// over loopback HTTP. Each hop's allocations are the difference between
// adjacent rungs. The handler rung decodes its answer like the HTTP rungs
// do; that decoding is measured on its own and taken out of the libei hop.
func hopLadder(node *openei.Node, set *modelSet, c *httpClient, nodeURL, gwURL, path string, query func(int) string) (map[string]float64, error) {
	n := len(set.inputs)
	engine, err := allocsPer(ladderCalls, func(i int) error {
		res, err := node.Serving.Infer(context.Background(), set.name, set.inputs[i%n])
		if err != nil {
			return err
		}
		return set.check(i%n, res.Class, res.Confidence)
	})
	if err != nil {
		return nil, fmt.Errorf("ladder engine: %w", err)
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		if reqs[i], err = http.NewRequest(http.MethodGet, "http://node"+path+query(i), nil); err != nil {
			return nil, err
		}
	}
	rec := &recorder{h: http.Header{}}
	decode := func(i int, body []byte) error {
		var res libei.InferResult
		if err := json.Unmarshal(body, &envelope{Result: &res}); err != nil {
			return fmt.Errorf("%w: %v", errWrong, err)
		}
		return set.check(i, res.Class, res.Confidence)
	}
	handler, err := allocsPer(ladderCalls, func(i int) error {
		rec.body.Reset()
		node.Server.ServeHTTP(rec, reqs[i%n])
		if rec.code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.code, rec.body.String())
		}
		return decode(i%n, rec.body.Bytes())
	})
	if err != nil {
		return nil, fmt.Errorf("ladder handler: %w", err)
	}
	body := append([]byte(nil), rec.body.Bytes()...)
	last := (ladderCalls - 1) % n
	decoding, err := allocsPer(ladderCalls, func(int) error { return decode(last, body) })
	if err != nil {
		return nil, err
	}
	viaHTTP := func(base string) (float64, error) {
		return allocsPer(ladderCalls, func(i int) error {
			var res libei.InferResult
			if err := c.get(0, -1, base+path+query(i%n), &res); err != nil {
				return err
			}
			return set.check(i%n, res.Class, res.Confidence)
		})
	}
	nodeHTTP, err := viaHTTP(nodeURL)
	if err != nil {
		return nil, fmt.Errorf("ladder node: %w", err)
	}
	gw, err := viaHTTP(gwURL)
	if err != nil {
		return nil, fmt.Errorf("ladder gateway: %w", err)
	}
	return map[string]float64{
		"serving.allocs_per_req":   engine,
		"libei.allocs_per_req":     handler - decoding - engine,
		"transport.allocs_per_req": nodeHTTP - handler,
		"gateway.allocs_per_req":   gw - nodeHTTP,
	}, nil
}

// timePlans times each case through a fresh replica of its model: the
// median microseconds per InferBatch call, and the achieved GFLOP/s over
// all cases from the model's FLOP count.
func timePlans(mgr *pkgmgr.Manager, cases []planCase, out map[string]float64) error {
	var flops, secs float64
	for _, pc := range cases {
		rep, err := mgr.NewReplica(pc.set.name)
		if err != nil {
			return err
		}
		n := len(pc.set.inputs)
		var times []float64
		deadline := time.Now().Add(sidePass)
		for it := 0; time.Now().Before(deadline) || it < 10; it++ {
			xs := make([]*tensor.Tensor, pc.batch)
			for b := range xs {
				xs[b] = pc.set.inputs[(it*pc.batch+b)%n]
			}
			start := time.Now()
			res, err := rep.InferBatch(xs)
			d := time.Since(start)
			if err != nil {
				return err
			}
			for b := range xs {
				if err := pc.set.check((it*pc.batch+b)%n, res.Classes[b], res.Confidences[b]); err != nil {
					return fmt.Errorf("plan %s: %w", pc.set.name, err)
				}
			}
			if it >= 3 {
				times = append(times, us(d))
				flops += float64(pc.set.model.FLOPs(pc.batch))
				secs += d.Seconds()
			}
		}
		out[pc.metric] = quantile(times, 0.5)
	}
	if secs > 0 {
		out["plan.exec_gflops"] = flops / secs / 1e9
	}
	return nil
}

// timeWalk times the package manager's urgent path, scheduler plus layer
// walk, one request at a time.
func timeWalk(mgr *pkgmgr.Manager, set *modelSet) (float64, error) {
	var times []float64
	deadline := time.Now().Add(sidePass)
	for it := 0; time.Now().Before(deadline) || it < 10; it++ {
		i := it % len(set.inputs)
		x, err := set.inputs[i].Reshape(append([]int{1}, set.inputs[i].Shape()...)...)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := mgr.InferUrgent(set.name, x)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := set.check(i, res.Classes[0], res.Confidences[0]); err != nil {
			return 0, fmt.Errorf("walk %s: %w", set.name, err)
		}
		times = append(times, ms(d))
	}
	return quantile(times, 0.5), nil
}
