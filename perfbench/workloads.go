package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"openei"
	"openei/internal/apps"
	"openei/internal/datastore"
	"openei/internal/gateway"
	"openei/internal/libei"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// device is the hardware profile every workload's node declares. It
// changes only the cost model and memory admission, never the kernels.
const device = "rpi4"

// workload is one traffic mix and the node that serves it.
type workload struct {
	name    string
	rate    float64       // Poisson arrivals per second
	slo     time.Duration // latency limit behind slo_attainment
	slots   int           // worker slots; 0 means one keep-alive connection per core
	routes  []route
	prepare func(seed int64) (fixture, error)
}

// fixture holds a workload's models, inputs and references, built once
// per process; setup deploys a fresh node from it.
type fixture interface {
	setup(tr *tracer) (*env, error)
}

// env is one deployed node with its servers and the request function.
type env struct {
	node  *openei.Node
	do    requester
	close func()

	// Traced-run hooks; nil where the workload does not reach the layer.
	ladder  func() (map[string]float64, error)
	plans   []planCase
	walk    *modelSet  // timed through Manager.InferUrgent
	pending func() int // sampled through the traced pass
	history func() int
}

// planCase is one model timed through pkgmgr.Replica.InferBatch.
type planCase struct {
	metric string
	set    *modelSet
	batch  int
}

var workloads = map[string]*workload{
	"gateway-trickle": {
		name: "gateway-trickle", rate: 150, slo: 25 * time.Millisecond,
		routes:  []route{{name: "infer", share: 1, inputs: 64}},
		prepare: prepareTrickle,
	},
	"vision-stream": {
		name: "vision-stream", rate: 300, slo: 50 * time.Millisecond, slots: 64,
		routes: []route{
			{name: "alexnet-m", share: 0.75, inputs: 64},
			{name: "squeezenet-m-int8", share: 0.25, inputs: 64},
		},
		prepare: prepareVision,
	},
	"scenario-mix": {
		name: "scenario-mix", rate: 300, slo: 25 * time.Millisecond,
		routes: []route{
			{name: "safety", share: 0.55, inputs: 1},
			{name: "home", share: 0.10, inputs: 1},
			{name: "health", share: 0.10, inputs: 1},
			{name: "vehicles", share: 0.10, inputs: 1},
			{name: "realtime", share: 0.075, inputs: 1},
			{name: "historical", share: 0.075, inputs: prefill - readN + 1},
		},
		prepare: prepareScenario,
	},
}

func newNode(window int) (*openei.Node, error) {
	return openei.New(openei.Config{NodeID: "bench-edge", Device: device, DataWindow: window})
}

// ---- gateway-trickle: client → gateway → libei → serving, one sample per request.

type trickle struct {
	mlp     *modelSet
	queries map[string]int // infer raw query → input index
	fps     map[uint64]int
}

func prepareTrickle(seed int64) (fixture, error) {
	mlp, err := newModelSet("mlp", "mlp", 16, 64, seed, tolFloat32)
	if err != nil {
		return nil, err
	}
	f := &trickle{mlp: mlp, queries: map[string]int{}, fps: mlp.fingerprints()}
	for i := range mlp.csv {
		f.queries[f.query(i)] = i
	}
	return f, nil
}

func (f *trickle) query(i int) string { return "model=mlp&input=" + f.mlp.csv[i] }

func (f *trickle) keyOfQuery(r *http.Request) int {
	if i, ok := f.queries[r.URL.RawQuery]; ok {
		return key(0, i)
	}
	return -1
}

func (f *trickle) setup(tr *tracer) (*env, error) {
	node, err := newNode(0)
	if err != nil {
		return nil, err
	}
	if err := node.LoadModel(f.mlp.model, false); err != nil {
		node.Close()
		return nil, err
	}
	var nodeH http.Handler = node.Handler()
	var transport http.RoundTripper
	if tr != nil {
		node.Server.SetInferer(&tracedInferer{t: tr, e: node.Serving, keyOf: func(x *tensor.Tensor) int {
			if i, ok := f.fps[fingerprint(x.Data())]; ok {
				return key(0, i)
			}
			return -1
		}})
		nodeH = tr.tracedHandler("libei", nodeH, func(r *http.Request) (int, string) { return f.keyOfQuery(r), "infer" })
		transport = &tracedTransport{t: tr, base: http.DefaultTransport, keyOf: f.keyOfQuery}
	}
	ns, err := serve(nodeH)
	if err != nil {
		node.Close()
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Nodes: []string{ns.url}, Transport: transport})
	if err != nil {
		ns.close()
		node.Close()
		return nil, err
	}
	gw.Start()
	var gwH http.Handler = gw
	if tr != nil {
		gwH = tr.tracedHandler("gateway", gw, func(*http.Request) (int, string) { return -1, "" })
	}
	gs, err := serve(gwH)
	if err != nil {
		gw.Close()
		ns.close()
		node.Close()
		return nil, err
	}
	client := newHTTPClient()
	path := "/ei_algorithms/serving/infer?"
	e := &env{node: node}
	e.do = func(slot, id int, a arrival) error {
		var res libei.InferResult
		if err := client.get(slot, id, gs.url+path+f.query(a.input), &res); err != nil {
			return err
		}
		return f.mlp.check(a.input, res.Class, res.Confidence)
	}
	e.close = func() {
		client.close()
		gs.close()
		gw.Close()
		ns.close()
		node.Close()
	}
	if err := e.do(0, -1, arrival{}); err != nil {
		e.close()
		return nil, fmt.Errorf("gateway-trickle: first answer: %w", err)
	}
	e.ladder = func() (map[string]float64, error) {
		return hopLadder(node, f.mlp, client, ns.url, gs.url, path, f.query)
	}
	e.plans = []planCase{{metric: "plan.batch1_us.mlp", set: f.mlp, batch: 1}}
	return e, nil
}

// ---- vision-stream: in-process camera frames through Node.ServeInfer.

type vision struct{ sets []*modelSet }

func prepareVision(seed int64) (fixture, error) {
	alex, err := newModelSet("alexnet-m", "alexnet-m", 32, 64, seed, tolFloat32)
	if err != nil {
		return nil, err
	}
	sq, err := newModelSet("squeezenet-m", "squeezenet-m-int8", 32, 64, seed+7, tolInt8)
	if err != nil {
		return nil, err
	}
	return &vision{sets: []*modelSet{alex, sq}}, nil
}

func (f *vision) setup(tr *tracer) (*env, error) {
	node, err := newNode(0)
	if err != nil {
		return nil, err
	}
	if err := node.LoadModel(f.sets[0].model, false); err != nil {
		node.Close()
		return nil, err
	}
	if err := node.LoadModelBackend(f.sets[1].model, openei.BackendInt8); err != nil {
		node.Close()
		return nil, err
	}
	e := &env{node: node, close: node.Close}
	e.do = func(_, id int, a arrival) error {
		set := f.sets[a.route]
		call := func() (serving.Result, error) { return node.ServeInfer(set.name, set.inputs[a.input]) }
		var res serving.Result
		var err error
		if tr != nil {
			res, err = tr.timeServing(id, call)
		} else {
			res, err = call()
		}
		if err != nil {
			return err
		}
		return set.check(a.input, res.Class, res.Confidence)
	}
	for r := range f.sets {
		if err := e.do(0, -1, arrival{route: r}); err != nil {
			node.Close()
			return nil, fmt.Errorf("vision-stream: first answer: %w", err)
		}
	}
	e.ladder = func() (map[string]float64, error) {
		set := f.sets[0]
		n, err := allocsPer(ladderCalls, func(i int) error {
			j := i % len(set.inputs)
			res, err := node.Serving.Infer(context.Background(), set.name, set.inputs[j])
			if err != nil {
				return err
			}
			return set.check(j, res.Class, res.Confidence)
		})
		return map[string]float64{"serving.allocs_per_req": n}, err
	}
	e.plans = []planCase{
		{metric: "plan.batch8_us.alexnet-m", set: f.sets[0], batch: 8},
		{metric: "plan.batch8_us.squeezenet-m-int8", set: f.sets[1], batch: 8},
	}
	return e, nil
}

// ---- scenario-mix: the paper's four application scenarios over libei
// HTTP, with a sensor feed appending to the datastore alongside.

const (
	prefill   = 128 // samples per sensor stored before the first request
	readN     = 8   // samples per /ei_data read
	trackWin  = 8   // vehicles/tracking frame window
	feedTick  = 10 * time.Millisecond
	frameSize = 32
)

// sensor is one simulated stream: a pool of seeded payloads it cycles
// through, and how many feed ticks pass between its samples.
type sensor struct {
	id, kind string
	every    int
	pool     [][]float32
}

type scenario struct {
	det, mlp *modelSet
	sensors  []sensor
	labels   []string
	base     time.Time
}

func prepareScenario(seed int64) (fixture, error) {
	det, err := newModelSet("lenet", "lenet", frameSize, 1, seed, tolFloat32)
	if err != nil {
		return nil, err
	}
	mlp, err := newModelSet("mlp", "mlp", 16, 1, seed+3, tolFloat32)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 11))
	pool := func(dim int) [][]float32 {
		out := make([][]float32, 64)
		for i := range out {
			out[i] = make([]float32, dim)
			for j := range out[i] {
				out[i][j] = rng.Float32()
			}
		}
		return out
	}
	f := &scenario{
		det: det, mlp: mlp,
		sensors: []sensor{
			{id: "camera1", kind: "camera", every: 4, pool: pool(frameSize * frameSize)},
			{id: "meter1", kind: "power-meter", every: 10, pool: pool(256)},
			{id: "imu1", kind: "imu", every: 1, pool: pool(256)},
		},
		base: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for i := 0; i < classes; i++ {
		f.labels = append(f.labels, fmt.Sprintf("class-%d", i))
	}
	return f, nil
}

// at is the synthetic sensor clock: sample k of a stream is stamped k
// seconds after the base, so historical ranges have exact counts.
func (f *scenario) at(k int) time.Time { return f.base.Add(time.Duration(k) * time.Second) }

func (f *scenario) setup(tr *tracer) (*env, error) {
	node, err := newNode(64)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		node.Close()
		return nil, err
	}
	if err := node.LoadModel(f.det.model, false); err != nil {
		return fail(err)
	}
	if err := node.LoadModel(f.mlp.model, false); err != nil {
		return fail(err)
	}
	for _, s := range f.sensors {
		if err := node.Store.Register(datastore.SensorInfo{ID: s.id, Kind: s.kind, Dim: len(s.pool[0])}); err != nil {
			return fail(err)
		}
		for k := 0; k < prefill; k++ {
			if err := node.Store.Append(s.id, datastore.Sample{At: f.at(k), Payload: s.pool[k%len(s.pool)]}); err != nil {
				return fail(err)
			}
		}
	}
	if err := node.EnableSafety(f.det.name, "camera1", f.labels, classes-1); err != nil {
		return fail(err)
	}
	if err := node.EnableHome(f.mlp.name, "meter1", f.labels); err != nil {
		return fail(err)
	}
	if err := node.EnableHealth(f.mlp.name, "imu1", f.labels, classes-1); err != nil {
		return fail(err)
	}
	if err := node.EnableVehicles("camera1", trackWin); err != nil {
		return fail(err)
	}
	var h http.Handler = node.Handler()
	if tr != nil {
		h = tr.tracedHandler("libei", h, func(r *http.Request) (int, string) {
			p := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
			if p[0] == "ei_data" {
				return -1, "data"
			}
			if len(p) > 1 {
				return -1, p[1]
			}
			return -1, ""
		})
	}
	ns, err := serve(h)
	if err != nil {
		return fail(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.feed(node.Store, tr, stop)
	}()
	client := newHTTPClient()
	e := &env{node: node}
	e.close = func() {
		close(stop)
		wg.Wait()
		client.close()
		ns.close()
		node.Close()
	}
	e.do = func(slot, id int, a arrival) error { return f.request(client, ns.url, slot, id, a) }
	// Every model answers once: the detector, and the mlp behind both
	// home and health; tracking reads the camera window.
	for r := 0; r < 4; r++ {
		if err := e.do(0, -1, arrival{route: r}); err != nil {
			e.close()
			return nil, fmt.Errorf("scenario-mix: first answer of route %d: %w", r, err)
		}
	}
	e.walk = f.det
	e.pending = node.Manager.PendingJobs
	e.history = func() int {
		n := 0
		for _, s := range f.sensors {
			n += node.Store.Count(s.id)
		}
		return n
	}
	return e, nil
}

// feed appends one sample per sensor every `every` ticks until stop,
// continuing the synthetic clock after the prefilled history.
func (f *scenario) feed(store *datastore.Store, tr *tracer, stop <-chan struct{}) {
	t := time.NewTicker(feedTick)
	defer t.Stop()
	next := make([]int, len(f.sensors))
	for i := range next {
		next[i] = prefill
	}
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for i, s := range f.sensors {
			if tick%s.every != 0 {
				continue
			}
			k := next[i]
			next[i]++
			start := time.Now()
			// The sensors are registered and the payload dims match, so
			// Append cannot fail here.
			_ = store.Append(s.id, datastore.Sample{At: f.at(k), Payload: s.pool[k%len(s.pool)]})
			if tr != nil {
				tr.addAppend(time.Since(start))
			}
		}
	}
}

// request sends one scenario request and checks the answer's schema:
// classes in range, labels matching classes, sample counts and dims.
func (f *scenario) request(c *httpClient, base string, slot, id int, a arrival) error {
	label := func(class int, got string, conf float64) error {
		if class < 0 || class >= classes || got != f.labels[class] || conf < 0 || conf > 1 {
			return fmt.Errorf("%w: class %d label %q confidence %v", errWrong, class, got, conf)
		}
		return nil
	}
	switch a.route {
	case 0:
		var d apps.Detection
		if err := c.get(slot, id, base+"/ei_algorithms/safety/detection?video=camera1", &d); err != nil {
			return err
		}
		return label(d.Class, d.Label, d.Confidence)
	case 1:
		var p apps.PowerReading
		if err := c.get(slot, id, base+"/ei_algorithms/home/power_monitor?sensor=meter1", &p); err != nil {
			return err
		}
		return label(p.Class, p.Appliance, p.Confidence)
	case 2:
		var r apps.ActivityReading
		if err := c.get(slot, id, base+"/ei_algorithms/health/fall_detection?sensor=imu1", &r); err != nil {
			return err
		}
		return label(r.Class, r.Activity, r.Confidence)
	case 3:
		var t apps.Track
		if err := c.get(slot, id, base+"/ei_algorithms/vehicles/tracking?video=camera1", &t); err != nil {
			return err
		}
		if t.Frames != trackWin || len(t.Positions) != trackWin {
			return fmt.Errorf("%w: track of %d frames, %d positions, want %d", errWrong, t.Frames, len(t.Positions), trackWin)
		}
		return nil
	case 4:
		return f.read(c, slot, id, fmt.Sprintf("%s/ei_data/realtime/meter1?n=%d", base, readN))
	default:
		url := fmt.Sprintf("%s/ei_data/historical/meter1?start=%s&end=%s", base,
			f.at(a.input).Format(time.RFC3339), f.at(a.input+readN-1).Format(time.RFC3339))
		return f.read(c, slot, id, url)
	}
}

func (f *scenario) read(c *httpClient, slot, id int, url string) error {
	var samples []libei.DataSample
	if err := c.get(slot, id, url, &samples); err != nil {
		return err
	}
	if len(samples) != readN {
		return fmt.Errorf("%w: %d samples, want %d", errWrong, len(samples), readN)
	}
	for _, s := range samples {
		if len(s.Payload) != 256 {
			return fmt.Errorf("%w: payload of %d values, want 256", errWrong, len(s.Payload))
		}
	}
	return nil
}
