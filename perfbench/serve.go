package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"beyondiv"
	"beyondiv/internal/codec"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// serveConns is serve-cache's closed-loop client count.
const serveConns = 2

// Request classes of the serve-cache mix, in percent: analyses of the
// hot set (memory-cache hits), edited copies of hot programs (disk
// structural hits through the codec), fresh programs (a miss, then an
// artifact persist) and optimizations of the hot set.
const (
	pctHot      = 60
	pctEdited   = 10
	pctFresh    = 20
	pctOptimize = 10
)

const (
	classHot = iota
	classEdited
	classFresh
	classOptimize
)

// serveInputs generates serve-cache's request sequence. Request i is a
// pure function of the seed and i, so the sequence is the same on every
// run with that seed whichever connection sends it.
type serveInputs struct {
	seed   int64
	hot    []input
	prefix string
}

func newServeInputs(root string, seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := seedPrefix(rng)
	ex, err := exampleInputs(root, prefix)
	if err != nil {
		return nil, err
	}
	hot := append(corpusInputs(), ex...)
	hot = append(hot, depInputs(1000, 60-len(hot), prefix)...)
	return &serveInputs{seed: seed, hot: hot, prefix: prefix}, nil
}

// request is one generated request. hot indexes the hot program it
// names or copies.
type request struct {
	path  string
	class int
	hot   int
	src   string
}

// request returns request number i.
func (g *serveInputs) request(i int) request {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	roll := rng.Intn(100)
	r := request{path: "/v1/analyze", hot: rng.Intn(len(g.hot))}
	h := g.hot[r.hot].src
	switch {
	case roll < pctHot:
		r.class, r.src = classHot, h
	case roll < pctHot+pctEdited:
		r.class, r.src = classEdited, editProgram(h, rng, i)
	case roll < pctHot+pctEdited+pctFresh:
		r.class, r.src = classFresh, freshProgram(g.seed, i, g.prefix)
	default:
		r.path, r.class, r.src = "/v1/optimize", classOptimize, h
	}
	return r
}

// editProgram returns a copy of src that only formatting or naming
// distinguishes from it: re-indented with a comment, or α-renamed. The
// comment carries the request number, so every copy is new text.
func editProgram(src string, rng *rand.Rand, i int) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("// edit %d\n%s", i, strings.ReplaceAll(src, "    ", "\t"))
	}
	return fmt.Sprintf("// rename %d\n%s", i, renameScalars(src, letters(i)))
}

// letters spells i in base 26 with a leading 'r', a fresh rename prefix
// per request.
func letters(i int) string {
	b := []byte{'r'}
	for {
		b = append(b, 'a'+byte(i%26))
		i /= 26
		if i == 0 {
			return string(b)
		}
	}
}

// freshProgram is a dependence workload no earlier request has sent:
// the progen seed comes from the benchmark seed and the request number,
// and a leading assignment of the request number makes its structure
// unique too.
func freshProgram(seed int64, i int, prefix string) string {
	src := progen.DepWorkload(seed<<24 ^ int64(i))
	return renameScalars(fmt.Sprintf("fresh = %d\n%s", i, src), prefix)
}

// daemon is a running bivd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	dir    string
	waited chan struct{}
}

// startDaemon starts bivd on an ephemeral port with a fresh cache
// directory under work.
func startDaemon(bin, work string) (*daemon, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "bivd-cache-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-parallel", "1",
		"-cache", "1024", "-cache-dir", dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start bivd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, waited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "bivd listening on http://"); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.waited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.waited:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, errors.New("bivd did not report its listen address")
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() float64 { return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)) }

// stop terminates bivd, waits for it to exit and removes its cache.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
	}
	os.RemoveAll(d.dir)
}

// answer is the digest of a 200 response's checked fields.
type answer [32]byte

func digest(parts ...string) answer {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var a answer
	h.Sum(a[:0])
	return a
}

// response is the subset of /v1/analyze and /v1/optimize bodies the
// checks read.
type response struct {
	Classification string   `json:"classification"`
	Dependences    string   `json:"dependences"`
	ElapsedUS      int64    `json:"elapsed_us"`
	Rounds         int      `json:"rounds"`
	Rewrites       int      `json:"rewrites"`
	ParallelLoops  []string `json:"parallel_loops"`
}

func (r *response) digest(optimize bool) answer {
	if !optimize {
		return digest(r.Classification, r.Dependences)
	}
	return digest(r.Classification, r.Dependences, fmt.Sprint(r.Rounds, r.Rewrites, r.ParallelLoops))
}

// served is one request's outcome, kept for the checks after the run.
type served struct {
	i         int
	req       request
	status    int
	answer    answer
	start     time.Duration // since the loop began
	lat       time.Duration
	elapsedUS int64
}

// serveWorkload is serve-cache: a bivd subprocess driven by serveConns
// connections in a closed loop.
type serveWorkload struct {
	gen    *serveInputs
	d      *daemon
	client *http.Client
	next   atomic.Int64 // next request number
	log    []served
	bad    []error
}

// newServeWorkload is the set-up: start the daemon and send it every
// hot program once for analysis and once for optimization.
func newServeWorkload(cfg *config) (*serveWorkload, error) {
	gen, err := newServeInputs(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.bivd, cfg.work)
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{gen: gen, d: d, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}}
	for _, h := range gen.hot {
		for _, path := range []string{"/v1/analyze", "/v1/optimize"} {
			status, _, err := w.post(path, h.src)
			if err != nil || status != http.StatusOK {
				w.close()
				return nil, fmt.Errorf("warm-up %s %s: status %d: %v", path, h.name, status, err)
			}
		}
	}
	return w, nil
}

func (w *serveWorkload) close() {
	w.client.CloseIdleConnections()
	w.d.stop()
}

func (w *serveWorkload) post(path, src string) (int, *response, error) {
	body, _ := json.Marshal(map[string]string{"source": src}) // a string map always marshals
	resp, err := w.client.Post("http://"+w.d.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var r response
	if err := json.Unmarshal(data, &r); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &r, nil
}

// loop runs the closed loop until dur has passed (sending at least one
// request) or, when n > 0, until n requests have been sent. Each connection sends its next request
// when its previous one has been answered.
func (w *serveWorkload) loop(dur time.Duration, n int) *loopStats {
	first := int(w.next.Load())
	logs := make([][]served, serveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(w.next.Add(1) - 1)
				if n > 0 && i >= first+n || n <= 0 && i > first && time.Since(start) >= dur {
					return
				}
				req := w.gen.request(i)
				t0 := time.Now()
				status, r, err := w.post(req.path, req.src)
				s := served{i: i, req: req, status: status, start: t0.Sub(start), lat: time.Since(t0)}
				if err != nil {
					s.status = 0
				} else if r != nil {
					s.answer = r.digest(req.class == classOptimize)
					s.elapsedUS = r.ElapsedUS
				}
				logs[c] = append(logs[c], s)
			}
		}(c)
	}
	wg.Wait()
	st := newLoopStats()
	st.wall = time.Since(start)
	// Windows are whole seconds of completions; the mix is random, so
	// any second holds it.
	for n := time.Duration(1); n*minWindow <= st.wall; n++ {
		st.windows = append(st.windows, minWindow)
	}
	for _, l := range logs {
		for _, s := range l {
			w.log = append(w.log, s)
			// Requests group by class and hot program: the edited copies
			// of one program form one input, and fresh programs fall
			// into as many groups by their request's draw.
			st.record(s.req.class*len(w.gen.hot)+s.req.hot, int((s.start+s.lat)/minWindow), s.lat, s.status == http.StatusOK)
		}
	}
	return st
}

func (w *serveWorkload) measure(dur time.Duration, _ bool) *loopStats { return w.loop(dur, 0) }

// verify compares every 200 answer with the in-process report of the
// same source, and counts failures into the stats of the loop that sent
// them. It runs after measurement.
func (w *serveWorkload) verify(stats ...*loopStats) {
	an := beyondiv.NewAnalyzer(beyondiv.Options{})
	want := map[string]answer{}
	expected := func(path, src string) answer {
		key := path + "\x00" + src
		if a, ok := want[key]; ok {
			return a
		}
		var a answer
		if path == "/v1/optimize" {
			if res, err := an.Optimize(src); err == nil {
				r := response{Classification: res.Program.ClassificationReport(),
					Dependences: res.Program.DependenceReport(), Rounds: res.Rounds,
					Rewrites: res.Rewrites, ParallelLoops: res.ParallelLoops}
				a = r.digest(true)
			}
		} else if p, err := an.Analyze(src); err == nil {
			a = digest(p.ClassificationReport(), p.DependenceReport())
		}
		want[key] = a
		return a
	}
	// The log is in loop order: stats[0] covers the first loop's requests.
	k := 0
	for _, st := range stats {
		for j := int64(0); j < st.ops; j++ {
			s := w.log[k]
			k++
			if s.status != http.StatusOK {
				continue // already failed
			}
			if expected(s.req.path, s.req.src) != s.answer {
				st.failed++
				if len(w.bad) < 5 {
					w.bad = append(w.bad, fmt.Errorf("request %d (%s): answer differs from the in-process report", s.i, s.req.path))
				}
			}
		}
	}
}

func (w *serveWorkload) errors() []error { return w.bad }

// metricsCounters reads bivd's process-lifetime counters.
func (w *serveWorkload) metricsCounters() (map[string]int64, error) {
	resp, err := w.client.Get("http://" + w.d.addr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// traceRequests is the traced phase's fixed request count, so its
// cache and store counters repeat exactly.
const traceRequests = 3000

// trace runs a fixed number of requests, records a client span per
// request with a child serve.handler span of the server-reported
// elapsed time, and reads the cache and store counters around them. It
// then measures the codec's structural hash and the store's persist
// cost in process on fresh programs. The values go into v.
func (w *serveWorkload) trace(t *tracer, work string, v map[string]float64) (*loopStats, error) {
	c0, err := w.metricsCounters()
	if err != nil {
		return nil, err
	}
	first := len(w.log)
	st := w.loop(0, traceRequests)
	c1, err := w.metricsCounters()
	if err != nil {
		return nil, err
	}
	shed := 0
	for _, s := range w.log[first:] {
		t.op = s.i
		if s.status == http.StatusTooManyRequests {
			shed++
		}
		id := len(t.spans)
		t.add("serve.request", -1, int64(s.start), int64(s.start+s.lat))
		if s.status == http.StatusOK {
			mid := int64(s.start + s.lat/2)
			half := s.elapsedUS * 1000 / 2
			t.add("serve.handler", id, mid-half, mid+half)
		}
	}
	d := func(k string) float64 { return float64(c1[k] - c0[k]) }
	misses := d("engine.cache.miss")
	v["engine.cache.hit_ratio"] = ratio(d("engine.cache.hit"), d("engine.cache.hit")+misses)
	v["store.hit_alias_ratio"] = ratio(d("engine.store.hit.alias"), misses)
	v["store.hit_struct_ratio"] = ratio(d("engine.store.hit.struct"), misses)
	v["store.writes"] = d("engine.store.write")
	v["serve.shed_ratio"] = ratio(float64(shed), float64(st.ops))
	v["codec.hash_ms"], v["store.persist_ms"], err = w.persistCost(work)
	return st, err
}

// persistCost times, on 64 fresh programs, codec.StructuralHash of the
// parsed program, and a cold Analyze with a CacheDir against one
// without (best of three each); it returns the mean hash time and the
// mean extra time of the persisting analysis.
func (w *serveWorkload) persistCost(work string) (hashMS, persistMS float64, err error) {
	dir, err := os.MkdirTemp(work, "persist-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	plain := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1})
	const n = 64
	var hash, extra float64
	for i := 0; i < n; i++ {
		src := freshProgram(w.gen.seed+1, i, w.gen.prefix)
		file, err := parse.File(src)
		if err != nil {
			return 0, 0, err
		}
		best := [3]time.Duration{time.Hour, time.Hour, time.Hour}
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			codec.StructuralHash(file)
			best[0] = min(best[0], time.Since(t0))
			// A fresh directory per repetition keeps every persisting
			// analysis a miss that writes.
			persisting := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1,
				CacheDir: filepath.Join(dir, fmt.Sprint(i, "-", r))})
			t0 = time.Now()
			_, err1 := persisting.Analyze(src)
			best[1] = min(best[1], time.Since(t0))
			t0 = time.Now()
			_, err2 := plain.Analyze(src)
			best[2] = min(best[2], time.Since(t0))
			if err := errors.Join(err1, err2); err != nil {
				return 0, 0, err
			}
		}
		hash += ms(best[0])
		extra += ms(best[1]) - ms(best[2])
	}
	return hash / n, extra / n, nil
}
