package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"polaris/internal/fabric"
	"polaris/internal/server"
)

// node is one compile service on a real loopback listener.
type node struct {
	url  string
	http *http.Server
	done chan error
}

func startNode(l net.Listener, cfg server.Config) *node {
	n := &node{
		url:  "http://" + l.Addr().String(),
		http: &http.Server{Handler: server.New(cfg).Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.http.Serve(l) }()
	return n
}

// stop drains the node and waits for its accept loop to end.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	if serr := <-n.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// serverMetrics is the part of the GET /metrics document the harness
// reads. It is decoded from the wire, not imported, so the coupling is
// to the service's published format only.
type serverMetrics struct {
	Counters map[string]int64 `json:"counters"`
	Cache    struct {
		Bytes     int64 `json:"bytes"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Queue struct {
		Shed int64 `json:"shed_total"`
	} `json:"queue"`
	QueueWait histogram `json:"queue_wait"`
	Latency   []struct {
		Route   string `json:"route"`
		Outcome string `json:"outcome"`
		histogram
	} `json:"latency"`
}

func (m *serverMetrics) series(route, outcome string) histogram {
	for _, s := range m.Latency {
		if s.Route == route && s.Outcome == outcome {
			return s.histogram
		}
	}
	return histogram{}
}

// compileResponse is the part of a POST /v1/compile answer the harness
// checks and, on traced operations, lays out as spans.
type compileResponse struct {
	Outcome       string `json:"outcome"`
	ParallelLoops int    `json:"parallel_loops"`
	Verdicts      []struct {
		Parallel    bool     `json:"parallel"`
		RunTimeTest []string `json:"run_time_test"`
	} `json:"verdicts"`
	Report []struct {
		Pass       string `json:"pass"`
		DurationNS int64  `json:"duration_ns"`
	} `json:"report"`
}

// clientStats is what one client goroutine accumulates; clients never
// share one.
type clientStats struct {
	responses, respBytes int64
	// compileTotals holds, per traced cold response, the summed pass
	// time the service reported for that compile.
	compileTotals []float64
	// loops is the DOALL+LRPD count each program's latest response
	// carried (-1 before the first).
	loops []int
}

// service is what the three server workloads share: the nodes, the
// keep-alive HTTP client of the closed loop, and the per-client
// accumulators.
type service struct {
	cfg      runConfig
	progs    []program
	expected map[string]expectedProgram
	nodes    []*node
	client   *http.Client
	stats    []clientStats
	// target is the node the timed requests go to, want the outcome every
	// one of them must report, before the target's /metrics at the end of
	// set-up.
	target *node
	want   string
	before serverMetrics
	// after and ops are known once collect has run: the target's
	// /metrics at the end of the measured phase, and how many operations
	// the phase attempted.
	after serverMetrics
	ops   int
}

func newService(cfg runConfig, clients int, want string) (*service, error) {
	exp, err := loadExpectedSuite()
	if err != nil {
		return nil, err
	}
	s := &service{cfg: cfg, progs: suitePrograms(), expected: exp, want: want,
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: 2 * clients}},
		stats:  make([]clientStats, clients)}
	for c := range s.stats {
		s.stats[c].loops = make([]int, len(s.progs))
		for p := range s.stats[c].loops {
			s.stats[c].loops[p] = -1
		}
	}
	return s, nil
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// postJSON posts body to url and returns the status and the whole
// response body.
func (s *service) postJSON(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// compile is one timed POST /v1/compile of program p's variant in body
// to n. The clock runs from sending the request to holding the whole
// answer; decoding and checking it are the client's own work and
// happen after the clock stops.
func (s *service) compile(c int, n *node, p int, body []byte, want string, tr *opSpans) opOutcome {
	start, root := openOp(tr)
	status, data, err := s.postJSON(n.url+"/v1/compile", body)
	end := time.Now()
	out := opOutcome{dur: closeOp(tr, start), lines: s.progs[p].lines}
	var httpSpan int64
	if tr != nil {
		httpSpan = tr.add("http", root, start, end)
	}
	if err != nil || status != http.StatusOK {
		return out
	}
	var resp compileResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return out
	}
	st := &s.stats[c]
	st.responses++
	st.respBytes += int64(len(data))
	lrpd := 0
	for _, vd := range resp.Verdicts {
		if !vd.Parallel && len(vd.RunTimeTest) > 0 {
			lrpd++
		}
	}
	st.loops[p] = resp.ParallelLoops + lrpd
	if tr != nil && resp.Outcome == "cold" {
		// Only a cold answer's report describes work this request caused;
		// a hit replays the report of the compile that filled the entry.
		var names []string
		var durs []time.Duration
		var total int64
		for _, ev := range resp.Report {
			names = append(names, "pass."+ev.Pass)
			durs = append(durs, time.Duration(ev.DurationNS))
			total += ev.DurationNS
		}
		tr.layOut(httpSpan, names, durs)
		st.compileTotals = append(st.compileTotals, float64(total)/1e6)
	}
	e := s.expected[s.progs[p].name]
	out.ok = resp.Outcome == want && resp.ParallelLoops == e.Doall && lrpd == e.LRPD
	return out
}

// warm posts every body to n from the service's clients at once and
// requires each to be answered as a cold compile.
func (s *service) warm(n *node, bodies [][]byte, which []int) error {
	errs := make([]error, len(s.stats))
	var wg sync.WaitGroup
	for c := range s.stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += len(s.stats) {
				if out := s.compile(c, n, which[i], bodies[i], "cold", nil); !out.ok {
					errs[c] = fmt.Errorf("warming request %d was not answered as a cold compile", i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *service) metrics(n *node) (serverMetrics, error) {
	var m serverMetrics
	resp, err := s.client.Get(n.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// ready ends set-up: it forgets what the warming requests accumulated
// and snapshots the target's counters, so the measured phase reads as
// deltas.
func (s *service) ready() error {
	for c := range s.stats {
		s.stats[c].responses, s.stats[c].respBytes, s.stats[c].compileTotals = 0, 0, nil
	}
	var err error
	s.before, err = s.metrics(s.target)
	return err
}

// collect reads the target's /metrics and turns the deltas over the
// measured phase into the cache.*, server.* and http.* rows.
func (s *service) collect(ph *phase, v values) error {
	after, err := s.metrics(s.target)
	if err != nil {
		return err
	}
	s.after = after
	hits := after.Cache.Hits - s.before.Cache.Hits
	misses := after.Cache.Misses - s.before.Cache.Misses
	v["cache.hits"] = float64(hits)
	v["cache.misses"] = float64(misses)
	if hits+misses > 0 {
		v["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["cache.coalesced"] = float64(after.series("compile", "coalesced").Count - s.before.series("compile", "coalesced").Count)
	v["cache.bytes"] = float64(after.Cache.Bytes)
	v["cache.evictions"] = float64(after.Cache.Evictions - s.before.Cache.Evictions)
	v["server.shed"] = float64(after.Queue.Shed - s.before.Queue.Shed)
	v["server.queue_wait_p95_ms"] = after.QueueWait.sub(s.before.QueueWait).quantileMS(0.95)
	p50 := after.series("compile", s.want).sub(s.before.series("compile", s.want)).quantileMS(0.50)
	v["server.latency_p50_ms"] = p50
	v["http.client_overhead_ms"] = v["op_p50_ms"] - p50

	var responses, respBytes int64
	var compileTotals []float64
	loops := make([]int, len(s.progs))
	for _, st := range s.stats {
		responses += st.responses
		respBytes += st.respBytes
		compileTotals = append(compileTotals, st.compileTotals...)
		for p, n := range st.loops {
			if n > loops[p] {
				loops[p] = n
			}
		}
	}
	if responses > 0 {
		v["server.resp_bytes"] = float64(respBytes) / float64(responses)
	}
	v["server.self_ms"] = p50 - median(compileTotals)
	for _, n := range loops {
		v["doall_loops"] += float64(n)
	}
	s.ops = len(ph.outcomes)
	return nil
}

// Only fabric_fill needs batches, and no server workload defers work.
func (s *service) prepare(int) (int, error) { return 0, nil }
func (s *service) settle()                  {}

func (s *service) close() error {
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.stop())
	}
	s.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// warmupOp is the operation index set-up's own warm-up operation runs
// under, far from any index the measured phase reaches.
const warmupOp = 1 << 30

// ---- serve_cold ----

type serveCold struct{ *service }

func setupServeCold(cfg runConfig, clients int) (instance, error) {
	s, err := newService(cfg, clients, "cold")
	if err != nil {
		return nil, err
	}
	l, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s.target = startNode(l, server.Config{})
	s.nodes = []*node{s.target}
	w := &serveCold{s}
	// One request per program, so no timed request is the first to take
	// a path through the compiler.
	for k := range s.progs {
		if out := w.op(0, warmupOp+2*k, nil); !out.ok {
			_ = s.close() // the failed warm-up is the error to report
			return nil, fmt.Errorf("warm-up request %d failed", k)
		}
	}
	return w, s.ready()
}

// op posts a never-seen variant of one suite program: the service
// decodes, admits, misses its cache, compiles and encodes. Operations
// 2k and 2k+1 carry the same program, so a traced run's traced and
// control halves compile the same mix.
func (w *serveCold) op(c, i int, tr *opSpans) opOutcome {
	p := i / 2 % len(w.progs)
	body := compileBody(variant(w.progs[p].source, w.cfg.seed, "cold", i))
	return w.compile(c, w.target, p, body, w.want, tr)
}

func (w *serveCold) verify(v values) []string {
	if v["cache.hits"] != 0 {
		return []string{fmt.Sprintf("cache served %v hits on never-seen sources", v["cache.hits"])}
	}
	return nil
}

// ---- serve_warm ----

type serveWarm struct {
	*service
	bodies [][]byte
	which  []int
	draws  []*rng
}

func setupServeWarm(cfg runConfig, clients int) (instance, error) {
	s, err := newService(cfg, clients, "cache_hit")
	if err != nil {
		return nil, err
	}
	l, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s.target = startNode(l, server.Config{})
	s.nodes = []*node{s.target}
	w := &serveWarm{service: s}
	w.bodies, w.which = workingSet(s.progs, cfg.seed, workingSetSize)
	for c := 0; c < clients; c++ {
		w.draws = append(w.draws, newRNG(cfg.seed, fmt.Sprintf("draw%d", c)))
	}
	if err := s.warm(s.target, w.bodies, w.which); err != nil {
		_ = s.close() // the failed warm-up is the error to report
		return nil, err
	}
	return w, s.ready()
}

// op posts a request drawn from the warmed working set: the service
// decodes, admits, hits its cache, replays the decisions and encodes.
func (w *serveWarm) op(c, _ int, tr *opSpans) opOutcome {
	k := w.draws[c].intn(len(w.bodies))
	return w.compile(c, w.target, w.which[k], w.bodies[k], w.want, tr)
}

func (w *serveWarm) verify(v values) []string {
	if v["cache.misses"] != 0 || v["cache.hit_ratio"] != 1 {
		return []string{fmt.Sprintf("cache missed %v times on a resident working set (hit ratio %v)",
			v["cache.misses"], v["cache.hit_ratio"])}
	}
	return nil
}

// ---- fabric_fill ----

// fillBatch is how many candidate variants one epoch draws; the ring
// gives the owner about half of them.
const fillBatch = 256

type fabricFill struct {
	*service
	owner       *node // the requester is service.target
	ownerBefore serverMetrics
	// The current epoch's requests: keys the owner holds warm.
	bodies [][]byte
	which  []int
	base   int // index of the epoch's first operation
	drawn  int // candidates drawn so far
}

func setupFabricFill(cfg runConfig, clients int) (instance, error) {
	s, err := newService(cfg, clients, "peer_hit")
	if err != nil {
		return nil, err
	}
	la, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	lb, err := listenLoopback()
	if err != nil {
		_ = la.Close()
		return nil, err
	}
	peers := map[string]string{"a": "http://" + la.Addr().String(), "b": "http://" + lb.Addr().String()}
	w := &fabricFill{service: s}
	for _, self := range []string{"a", "b"} {
		fab, err := fabric.New(fabric.Config{Self: self, Peers: peers})
		if err != nil {
			_ = la.Close()
			_ = lb.Close()
			return nil, err
		}
		l := la
		if self == "b" {
			l = lb
		}
		s.nodes = append(s.nodes, startNode(l, server.Config{Fabric: fab}))
	}
	w.owner, s.target = s.nodes[0], s.nodes[1]
	if err := w.warmUp(); err != nil {
		_ = s.close() // the failed warm-up is the error to report
		return nil, err
	}
	if w.ownerBefore, err = s.metrics(w.owner); err != nil {
		_ = s.close()
		return nil, err
	}
	return w, s.ready()
}

// warmUp runs one small epoch through both nodes before the clock
// starts.
func (w *fabricFill) warmUp() error {
	n, err := w.prepare(0)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if out := w.op(0, i, nil); !out.ok {
			return fmt.Errorf("warm-up fill %d failed", i)
		}
	}
	w.bodies, w.which = nil, nil // the measured phase counts operations from 0
	return nil
}

// prepare draws an epoch of fresh variants, keeps the ones the ring
// assigns to the owner node, and compiles those there, so that every
// timed request of the epoch finds its key warm one hop away.
func (w *fabricFill) prepare(int) (int, error) {
	w.base += len(w.bodies)
	w.bodies, w.which = nil, nil
	for k := 0; k < fillBatch; k++ {
		p := w.drawn % len(w.progs)
		src := variant(w.progs[p].source, w.cfg.seed, "fill", w.drawn)
		w.drawn++
		status, data, err := w.postJSON(w.owner.url+"/fabric/v1/owner", compileBody(src))
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("owner lookup: status %d: %v", status, err)
		}
		var who struct {
			Self bool `json:"self"`
		}
		if err := json.Unmarshal(data, &who); err != nil {
			return 0, fmt.Errorf("owner lookup: %w", err)
		}
		if who.Self {
			w.bodies = append(w.bodies, compileBody(src))
			w.which = append(w.which, p)
		}
	}
	if len(w.bodies) == 0 {
		return 0, fmt.Errorf("the ring gave the owner none of %d keys", fillBatch)
	}
	return len(w.bodies), w.warm(w.owner, w.bodies, w.which)
}

// op asks the requester node for a key the owner holds: the requester
// misses, fetches the finished entry over the peer hop, verifies its
// checksum, re-parses and proves the rendering faithful.
func (w *fabricFill) op(c, i int, tr *opSpans) opOutcome {
	k := i - w.base
	return w.compile(c, w.target, w.which[k], w.bodies[k], w.want, tr)
}

func (w *fabricFill) collect(ph *phase, v values) error {
	if err := w.service.collect(ph, v); err != nil {
		return err
	}
	ownerAfter, err := w.metrics(w.owner)
	if err != nil {
		return err
	}
	fill := v["server.latency_p50_ms"]
	own := ownerAfter.series("fabric_fill", "cache_hit").sub(w.ownerBefore.series("fabric_fill", "cache_hit")).quantileMS(0.50)
	v["fabric.fill_p50_ms"] = fill
	v["fabric.owner_p50_ms"] = own
	v["fabric.hop_ms"] = fill - own
	v["fabric.peer_hits"] = float64(w.after.Counters["server_peer_hits"] - w.before.Counters["server_peer_hits"])
	v["fabric.peer_errors"] = float64(w.after.Counters["server_peer_errors"] - w.before.Counters["server_peer_errors"])
	return nil
}

func (w *fabricFill) verify(v values) []string {
	var bad []string
	if v["fabric.peer_errors"] != 0 {
		bad = append(bad, fmt.Sprintf("%v peer fills degraded to a local compile", v["fabric.peer_errors"]))
	}
	if int(v["fabric.peer_hits"]) != w.ops {
		bad = append(bad, fmt.Sprintf("%v peer hits for %d requests", v["fabric.peer_hits"], w.ops))
	}
	return bad
}
