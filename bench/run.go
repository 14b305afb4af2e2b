package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polaris/internal/symbolic"
)

// runConfig is what one workload run is told.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string // where a traced run writes its spans
}

// opOutcome is one operation as its client saw it.
type opOutcome struct {
	dur   time.Duration // request sent (or compile called) to answer in hand
	lines int           // non-blank source lines the operation carried
	ok    bool          // answered, and with the expected outcome and verdict count
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// prepare readies batch b outside the timed phase and returns how
	// many operations the batch holds; 0 means the workload needs no
	// batches and operations run until the deadline.
	prepare(b int) (int, error)
	// op runs operation i as client c. tr is nil on untraced operations;
	// otherwise the operation records its spans there, the first being
	// its root span.
	op(c, i int, tr *opSpans) opOutcome
	// settle runs once when the last timed segment has ended, before the
	// spans are merged: work the traced operations put off until the
	// clock and the CPU accounting had stopped.
	settle()
	// collect reads the counters the program exports once the measured
	// phase is over and adds this workload's per-layer values and its
	// doall_loops.
	collect(ph *phase, v values) error
	// verify is the correctness gate, outside the timed phase. It
	// returns one line per failure.
	verify(v values) []string
	close() error
}

// workloadDef names a workload and knows how to set it up.
type workloadDef struct {
	name, why string
	// clients is the closed loop's size: each client issues its next
	// operation when the previous one is answered.
	clients int
	setup   func(cfg runConfig, clients int) (instance, error)
}

const (
	// A run sets its workload up at least setupMinReps times, and goes on
	// (to at most setupMaxReps) while all its set-ups together have taken
	// less than setupBudget: setup_s is the median, and a set-up of tens
	// of milliseconds needs more repetitions than one of a second to read
	// steadily.
	setupMinReps = 3
	setupMaxReps = 9
	setupBudget  = 2 * time.Second
	// minOps keeps a short run of a slow workload from reporting a
	// median of one or two samples.
	minOps = 4
)

// phase is what the measured phase of a run produced.
type phase struct {
	outcomes  []opOutcome
	busy      time.Duration // summed operation time of one average client
	use       usage         // CPU and allocation over the timed segments
	queries   int64         // prover queries over the timed segments
	memoHits  int64         // and how many of them the prover's memo answered
	spans     []span
	totals    layerTotals
	tracedOps int
	traced    []time.Duration // durations of traced operations
	control   []time.Duration // durations of the untraced ones beside them
}

// perOp divides a total over the traced operations.
func (ph *phase) perOp(total float64) float64 {
	if ph.tracedOps == 0 {
		return 0
	}
	return total / float64(ph.tracedOps)
}

type clientLog struct {
	outcomes []opOutcome
	traced   []bool
	recs     []*opSpans
}

// measure drives the closed loop: clients goroutines, each taking the
// next operation when its previous one is answered, until the
// deadline. In a traced run every second operation records spans and
// the others are the untraced control the tracing overhead is read
// against.
func measure(inst instance, clients int, cfg runConfig) (*phase, error) {
	ph := &phase{}
	logs := make([]clientLog, clients)
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(cfg.seconds * float64(time.Second)))
	base := 0
	for b := 0; ; b++ {
		n, err := inst.prepare(b)
		if err != nil {
			return nil, fmt.Errorf("prepare batch %d: %w", b, err)
		}
		var taken atomic.Int64
		u0, p0 := readUsage(), symbolic.ReadProverStats()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				log := &logs[c]
				for {
					if n == 0 && taken.Load() >= minOps && time.Now().After(deadline) {
						return
					}
					k := int(taken.Add(1) - 1)
					if n > 0 && k >= n {
						return
					}
					i := base + k
					var tr *opSpans
					if cfg.traced && i%2 == 1 {
						tr = newOpSpans(i, epoch)
					}
					log.outcomes = append(log.outcomes, inst.op(c, i, tr))
					log.traced = append(log.traced, tr != nil)
					if tr != nil {
						log.recs = append(log.recs, tr)
					}
				}
			}(c)
		}
		wg.Wait()
		ph.use = ph.use.add(readUsage().sub(u0))
		p1 := symbolic.ReadProverStats()
		ph.queries += p1.Queries - p0.Queries
		ph.memoHits += p1.MemoHits - p0.MemoHits
		base += n
		if n == 0 || time.Now().After(deadline) {
			break
		}
	}
	inst.settle()
	var busy time.Duration
	for _, log := range logs {
		for i, o := range log.outcomes {
			ph.outcomes = append(ph.outcomes, o)
			busy += o.dur
			if !o.ok {
				continue
			}
			if log.traced[i] {
				ph.traced = append(ph.traced, o.dur)
			} else {
				ph.control = append(ph.control, o.dur)
			}
		}
		for _, r := range log.recs {
			ph.spans = append(ph.spans, r.spans...)
		}
		ph.tracedOps += len(log.recs)
	}
	ph.busy = busy / time.Duration(clients)
	sort.Slice(ph.spans, func(i, j int) bool { return ph.spans[i].ID < ph.spans[j].ID })
	ph.totals = totalsByName(ph.spans)
	return ph, nil
}

// spanMetrics maps span names to the per-layer rows their busy time
// feeds.
var spanMetrics = func() map[string]string {
	m := map[string]string{
		"lexer":           "lexer.busy_s",
		"parser":          "parser.busy_s",
		"core":            "core.busy_s",
		"codegen.fortran": "codegen.fortran_busy_s",
		"codegen.go":      "codegen.go_busy_s",
	}
	for _, p := range passNames {
		m["pass."+p] = "pass." + p + ".busy_s"
	}
	return m
}()

// runWorkload sets the workload up, measures it, reads its counters
// and runs its correctness gate.
func runWorkload(def workloadDef, cfg runConfig) (result, values, error) {
	var inst instance
	var setups []float64
	for began := time.Now(); len(setups) < setupMinReps || (len(setups) < setupMaxReps && time.Since(began) < setupBudget); {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, nil, fmt.Errorf("%s: tear down: %w", def.name, err)
			}
			runtime.GC()
		}
		t := time.Now()
		var err error
		if inst, err = def.setup(cfg, def.clients); err != nil {
			return result{}, nil, fmt.Errorf("%s: set up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()

	ph, err := measure(inst, def.clients, cfg)
	if err != nil {
		_ = inst.close() // the measurement error is the one to report
		return result{}, nil, fmt.Errorf("%s: %w", def.name, err)
	}
	v := values{"setup_s": median(setups), "peak_rss_mb": peakRSSMB()}

	var durs []time.Duration
	lines := 0
	for _, o := range ph.outcomes {
		if o.ok {
			durs = append(durs, o.dur)
			lines += o.lines
		}
	}
	ok := len(durs)
	lat := summarize(durs)
	v["op_p50_ms"] = lat.p50ms
	v["op_tail_ms"] = lat.tailms
	v["tail_pct"] = lat.tailPct
	if s := ph.busy.Seconds(); s > 0 {
		v["lines_per_s"] = float64(lines) / s
		v["req_per_s"] = float64(ok) / s
	}
	attempted := len(ph.outcomes)
	v["cpu_ms_per_op"] = float64(ph.use.cpu) / float64(time.Millisecond) / float64(attempted)
	v["alloc_mb_per_op"] = float64(ph.use.allocBytes) / (1 << 20) / float64(attempted)
	v["fail_ratio"] = float64(attempted-ok) / float64(attempted)

	if ph.queries > 0 {
		v["symbolic.queries"] = float64(ph.queries) / float64(attempted)
		v["symbolic.memo_hit_ratio"] = float64(ph.memoHits) / float64(ph.queries)
	}
	if cfg.traced {
		self := ph.totals.self
		for name, row := range spanMetrics {
			v[row] = ph.perOp(float64(ph.totals.busy[name]) / 1e9)
		}
		v["parser.self_s"] = ph.perOp(float64(self["parser"]) / 1e9)
		v["core.self_s"] = ph.perOp(float64(self["core"]) / 1e9)
		if op := ph.totals.busy["op"]; op > 0 {
			v["trace.unattributed_ratio"] = float64(self["op"]) / float64(op)
		}
		if c := summarize(ph.control).p50ms; c > 0 {
			v["trace.overhead_ratio"] = summarize(ph.traced).p50ms/c - 1
		}
	}
	var failures []string
	if err := inst.collect(ph, v); err != nil {
		failures = append(failures, "collect: "+err.Error())
	}
	failures = append(failures, inst.verify(v)...)
	if cfg.traced {
		failures = append(failures, checkSumOfParts(ph.spans, 1e-9)...)
		header := map[string]any{"workload": def.name, "seed": cfg.seed, "seconds": cfg.seconds,
			"clients": def.clients, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
		if err := writeSpans(cfg.outDir, def.name, header, ph.spans); err != nil {
			failures = append(failures, err.Error())
		}
	}
	if err := inst.close(); err != nil {
		failures = append(failures, "tear down: "+err.Error())
	}
	for _, f := range failures {
		fmt.Println("FAIL", def.name+":", f)
	}
	return result{
		Correct:   len(failures) == 0 && ok == attempted,
		Attempted: attempted,
		Failed:    attempted - ok,
		Metrics:   pick(v, cfg.traced),
	}, v, nil
}

// printValues prints one run's rows by name with their units.
func printValues(def workloadDef, cfg runConfig, v values, res result) {
	kind := "end-to-end, untraced"
	if cfg.traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("workload %s (%s): seed %d, %gs, %d client(s), GOMAXPROCS %d, %s\n",
		def.name, kind, cfg.seed, cfg.seconds, def.clients, runtime.GOMAXPROCS(0), runtime.Version())
	for _, m := range metricTable {
		if m.shownBy(cfg.traced) {
			fmt.Printf("  %-38s %16s %s\n", m.Name, formatValue(v[m.Name]), m.Unit)
		}
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// formatValue prints a value with all the digits it was measured to.
func formatValue(x float64) string {
	s := fmt.Sprintf("%.6f", x)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
