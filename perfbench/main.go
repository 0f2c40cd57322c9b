// Command perfbench is the datAcron pipeline's benchmark. One invocation
// runs one workload for a fixed measuring time and prints, as its last line,
// a JSON object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay|live --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order, with a note for each one that
// does not apply to the workload. Printed-only figures are shown but left
// out of the JSON result.
type report struct {
	names   []string
	m       map[string]metric
	notes   map[string]string
	printed []string
}

func newReport() *report {
	return &report{m: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.na(name, unit, "no samples")
		return
	}
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

// na records a metric that does not apply to this workload as 0 with the
// reason.
func (r *report) na(name, unit, why string) {
	r.set(name, unit, 0)
	r.notes[name] = why
}

// show adds a figure to the human-readable output only.
func (r *report) show(name, unit string, v float64, why string) {
	r.printed = append(r.printed, fmt.Sprintf("  %-32s %14.6g %-8s printed only: %s", name, v, unit, why))
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.m[n]
		if why, ok := r.notes[n]; ok {
			fmt.Printf("  %-32s %14s %-8s n/a: %s\n", n, "0", m.Unit, why)
			continue
		}
		fmt.Printf("  %-32s %14.6g %-8s\n", n, m.Value, m.Unit)
	}
	for _, line := range r.printed {
		fmt.Println(line)
	}
}

func main() {
	workload := flag.String("workload", "", "replay or live")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, measure time.Duration, traced bool) error {
	if measure <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	sc := newScenario(seed)
	b, err := newBench(workload, sc)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed=%d: %d reports, %d movers, %d statics, %d queries/iteration\n",
		workload, seed, len(sc.reports), fleetSize, len(sc.base.Statics), len(sc.queries))

	var rep *report
	var att, failed int
	if traced {
		rep, att, failed, err = b.tracedRun(measure)
	} else {
		rep, att, failed, err = b.measuredRun(measure)
	}
	if err != nil {
		return err
	}
	rep.print()
	fmt.Printf("  %-32s %14.6g %-8s (%d of %d operations)\n", "failed_ratio",
		float64(failed)/float64(max(att, 1)), "ratio", failed, att)
	for _, c := range b.checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.checks) == 0,
		Attempted: att,
		Failed:    failed,
		Metrics:   rep.m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// iterations runs the given variants in rotation until the measuring time
// has passed, the untraced variant has minIterations valid iterations and
// every other variant has one. Once that many are done, the next iteration
// starts only if it would end nearer the deadline than the last one did,
// so a run lasts the measuring time give or take half an iteration.
func (b *bench) iterations(measure time.Duration, variants []variant, tr *tracer) (map[variant][]*iteration, int, int, error) {
	out := map[variant][]*iteration{}
	var att, failed int
	deadline := time.Now().Add(measure)
	hardStop := time.Now().Add(150 * time.Second)
	first := true
	var last time.Duration
	for k := 0; ; k++ {
		enough := len(out[plain]) >= minIterations
		for _, v := range variants {
			enough = enough && len(out[v]) > 0
		}
		if enough && time.Until(deadline) < last/2 {
			break
		}
		if time.Now().After(hardStop) {
			return nil, att, failed, fmt.Errorf("%s: no valid measurement within the time limit", b.name)
		}
		v := variants[k%len(variants)]
		var vt *tracer
		if v == traced {
			vt = tr
		}
		t0 := time.Now()
		it, err := b.iterate(v, vt, first)
		last = time.Since(t0)
		if err != nil {
			failed++
			att++
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration failed: %v\n", b.name, err)
			continue
		}
		first = false
		att += it.attempted
		failed += it.failed
		if !it.valid {
			fmt.Printf("  iteration %d invalid: generator p99 lateness above %s, not recorded\n", k, liveLateLimit)
			continue
		}
		out[v] = append(out[v], it)
	}
	return out, att, failed, nil
}

// measuredRun is the untraced run behind the end-to-end metrics.
func (b *bench) measuredRun(measure time.Duration) (*report, int, int, error) {
	its, att, failed, err := b.iterations(measure, []variant{plain}, nil)
	if err != nil {
		return nil, att, failed, err
	}
	r := newReport()
	e2e(r, its[plain])
	return r, att, failed, nil
}

// e2e derives the end-to-end metrics from a set of iterations: each is the
// median over iterations of a per-iteration figure, so one disturbed
// iteration cannot move it.
//
// The p99 tails and drain_ms are printed but not reported: on a 2-vCPU
// shared host a few milliseconds of preemption move them by more than the
// largest bound a metric may have (see README.md). The tails are pooled
// over the run's iterations, so each has more than ten samples beyond it.
// The graph build is reported as triples per second: its wall time follows
// the seed's graph size (a quartile spread of 5% over forty seeds) and is
// printed only.
func e2e(r *report, its []*iteration) {
	var setup, rps, drain, runS, kg, kgRate, heap, emit50, q50, emit, query []float64
	for k, it := range its {
		fmt.Printf("  iteration %d: %.0f rec/s, run %.3f s, recover %.3f s (%d attempts), emit p50 %.1f ms, drain %.1f ms, graph %.3f s, query p50 %.3f ms, heap %.1f MB, raw backlog max %d",
			k, float64(it.records)/it.rtWall.Seconds(), it.runWall.Seconds(), it.recoverWall.Seconds(), it.attempts,
			quantile(append([]float64(nil), it.emit...), 0.5), ms(it.drain),
			it.kgBuild.Seconds(), quantile(append([]float64(nil), it.query...), 0.5), float64(it.heap)/(1<<20), it.backlogMax)
		if it.late != nil {
			fmt.Printf(", generator late p99 %.2f ms", quantile(append([]float64(nil), it.late...), 0.99))
		}
		fmt.Println()
		setup = append(setup, it.setup...)
		rps = append(rps, float64(it.records)/it.rtWall.Seconds())
		drain = append(drain, ms(it.drain))
		runS = append(runS, it.recoverWall.Seconds())
		kg = append(kg, it.kgBuild.Seconds())
		kgRate = append(kgRate, float64(it.kgTriples)/it.kgBuild.Seconds())
		heap = append(heap, float64(it.heap)/(1<<20))
		emit50 = append(emit50, quantile(it.emit, 0.5))
		q50 = append(q50, quantile(it.query, 0.5))
		emit = append(emit, it.emit...)
		query = append(query, it.query...)
	}
	r.set("setup_s", "s", median(setup))
	r.set("records_per_s", "rec/s", median(rps))
	r.set("emit_p50_ms", "ms", median(emit50))
	r.set("recover_s", "s", median(runS))
	r.set("kg_triples_per_s", "triples/s", median(kgRate))
	r.set("query_p50_ms", "ms", median(q50))
	r.set("retained_heap_mb", "MB", median(heap))
	r.show("kg_build_s", "s", median(kg), fmt.Sprintf("median over iterations, %d triples", its[0].kgTriples))
	r.show("drain_ms", "ms", median(drain), "median over iterations")
	r.show("emit_p99_ms", "ms", quantile(emit, 0.99), fmt.Sprintf("pooled over %d critical points", len(emit)))
	r.show("query_p99_ms", "ms", quantile(query, 0.99), fmt.Sprintf("pooled over %d star joins", len(query)))
	fmt.Printf("  %d iterations, %d set-ups\n", len(its), len(setup))
}

// tracePath is where a traced run leaves its spans, inside the checkout.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
