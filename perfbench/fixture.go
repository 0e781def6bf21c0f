package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"openei/internal/nn"
	"openei/internal/tensor"
	"openei/internal/zoo"
)

// Tolerances of the correctness oracle, taken from the repository's own
// tests: compiled float32 plans match the layer walk within 1e-4
// (internal/plan), int8 replicas stay within 0.05 confidence of the float
// model (internal/pkgmgr).
const (
	tolFloat32 = 1e-4
	tolInt8    = 0.05
	classes    = 10
	ridHeader  = "X-Bench-Rid"
)

// errWrong marks a request whose answer failed the oracle, as opposed to
// one that got no answer.
var errWrong = errors.New("wrong answer")

// modelSet is one model with its seeded input set and the reference
// softmax of Model.Forward for each input.
type modelSet struct {
	name   string
	model  *nn.Model
	inputs []*tensor.Tensor
	csv    []string // inputs as the infer route's CSV query value
	probs  [][]float64
	tol    float64
}

// newModelSet builds the named zoo model at size×size with weights and n
// inputs drawn from seed, and computes the reference answers.
func newModelSet(zooName, name string, size, n int, seed int64, tol float64) (*modelSet, error) {
	m, err := zoo.Build(zooName, size, classes, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	m.Name = name
	rng := rand.New(rand.NewSource(seed + 1))
	set := &modelSet{name: name, model: m, tol: tol}
	elems := size * size
	var sb strings.Builder
	for i := 0; i < n; i++ {
		data := make([]float32, elems)
		sb.Reset()
		for j := range data {
			data[j] = rng.Float32()
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(float64(data[j]), 'g', -1, 32))
		}
		x, err := tensor.NewFrom(data, 1, size, size)
		if err != nil {
			return nil, err
		}
		set.inputs = append(set.inputs, x)
		set.csv = append(set.csv, sb.String())
	}
	batch, err := tensor.Stack(set.inputs)
	if err != nil {
		return nil, err
	}
	logits, err := m.Forward(batch, false)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	p, err := nn.Softmax(logits)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		row := make([]float64, classes)
		for c := range row {
			row[c] = float64(p.Data()[i*classes+c])
		}
		set.probs = append(set.probs, row)
	}
	return set, nil
}

// check accepts an answer when its class scores within tolerance of the
// reference's top score and its confidence matches the reference's.
func (set *modelSet) check(input, class int, conf float64) error {
	ref := set.probs[input]
	if class < 0 || class >= len(ref) {
		return fmt.Errorf("%w: %s input %d: class %d out of range", errWrong, set.name, input, class)
	}
	top := ref[0]
	for _, v := range ref {
		top = math.Max(top, v)
	}
	if top-ref[class] > set.tol || math.Abs(conf-ref[class]) > set.tol {
		return fmt.Errorf("%w: %s input %d: class %d conf %.6f, reference top %.6f, class score %.6f",
			errWrong, set.name, input, class, conf, top, ref[class])
	}
	return nil
}

// fingerprints maps each input's bits to its index, so a wrapper that
// sees only a tensor can tell which scheduled input it carries.
func (set *modelSet) fingerprints() map[uint64]int {
	out := make(map[uint64]int, len(set.inputs))
	for i, x := range set.inputs {
		out[fingerprint(x.Data())] = i
	}
	return out
}

func fingerprint(xs []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range xs {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// server is an HTTP server on a loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// httpClient is the load generator's side of the HTTP workloads: at most
// one keep-alive connection per worker slot, one response buffer per slot.
type httpClient struct {
	c    *http.Client
	bufs []bytes.Buffer
}

func newHTTPClient() *httpClient {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 10 * time.Second}, bufs: make([]bytes.Buffer, n)}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// envelope is libei's response wrapper; Result points at the caller's
// typed destination.
type envelope struct {
	OK     bool `json:"ok"`
	Result any  `json:"result"`
}

// get issues one GET from slot and decodes the envelope's result into
// out. Transport errors and non-200 answers are failures; a 200 that does
// not decode is a wrong answer.
func (h *httpClient) get(slot, rid int, url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(ridHeader, strconv.Itoa(rid))
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	buf := &h.bufs[slot]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.String())
	}
	env := envelope{Result: out}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil || !env.OK {
		return fmt.Errorf("%w: undecodable answer (%v): %.200s", errWrong, err, buf.String())
	}
	return nil
}
