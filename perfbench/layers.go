package main

import (
	"bytes"
	"fmt"
	"time"

	"datacron/internal/cer"
	"datacron/internal/core"
	"datacron/internal/flp"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/rdf"
	"datacron/internal/rdfgen"
	"datacron/internal/store"
	"datacron/internal/synopses"
	"datacron/internal/va"
)

// layerSlice is how many records one layer processes between two clock
// reads. Timing batch-sized slices instead of single calls keeps the clock
// out of the per-record figures (a per-call span costs more than a decode).
const layerSlice = 256

// layerCost is one layer's accumulated work in the layer replay.
type layerCost struct {
	ns      time.Duration
	objects uint64
	bytes   uint64
}

// layerReplay is the outcome of pushing the workload's log through the
// layers' exported functions in pipeline order.
type layerReplay struct {
	cost      map[string]*layerCost
	records   int
	criticals int
	triples   int
	maskBuild time.Duration
	link      linkdisc.Stats
}

// Layer names, as they appear in the ledger and the per-layer metrics.
const (
	lEncode   = "mobility.encode"
	lDecode   = "mobility.decode"
	lArea     = "lowlevel.area"
	lFLP      = "flp"
	lSynopses = "synopses"
	lProfiler = "lowlevel.profiler"
	lDash     = "va.dashboard"
	lRDFGen   = "rdfgen"
	lFormat   = "rdf.format"
	lLinkdisc = "linkdisc"
	lCER      = "cer"
	lParse    = "rdf.parse"
	lLoad     = "store.load"
)

// runLayers replays reports through the real-time layer's per-trajectory
// stages (decode → area → FLP → synopses), the serial merge's stages
// (profiler, dashboard, then per critical point RDF generation, N-Triples
// formatting, link discovery and CER), and the batch layer (N-Triples
// parsing, store load). Each stage handles a whole slice before the next
// starts; every stage's state is its own, so the outputs equal those of the
// record-at-a-time pipeline. Each slice is a span under parent.
func runLayers(cfg core.Config, reports []mobility.Report, tr *tracer, parent int64, cost time.Duration) (*layerReplay, error) {
	out := &layerReplay{cost: map[string]*layerCost{}, records: len(reports)}
	meter := newAllocMeter()
	timed := func(name string, fn func()) {
		o0, b0 := meter.read()
		t0 := time.Now()
		fn()
		t1 := time.Now()
		o1, b1 := meter.read()
		tr.record(name, parent, t0, t1)
		c := out.cost[name]
		if c == nil {
			c = &layerCost{}
			out.cost[name] = c
		}
		if d := t1.Sub(t0) - cost; d > 0 {
			c.ns += d
		}
		c.objects += o1 - o0
		c.bytes += b1 - b0
	}

	syn := cfg.Synopses
	if syn == (synopses.Config{}) {
		syn = synopses.DefaultMaritime()
	}
	const predictSteps, sample = 8, 10 * time.Second // core's FLP defaults
	dec := mobility.NewDecoder()
	area := lowlevel.NewAreaMonitor(cfg.Regions, 64)
	preds := map[string]flp.Predictor{}
	sg := synopses.NewGenerator(syn)
	prof := lowlevel.NewProfiler()
	dash := va.NewDashboard(1000)
	gen := rdfgen.CriticalPointGenerator()
	t0 := time.Now()
	disc := linkdisc.NewDiscoverer(cfg.Link, cfg.Statics)
	out.maskBuild = time.Since(t0)
	var fc *cer.Forecaster
	if cfg.Pattern != "" {
		pat, err := cer.ParsePattern(cfg.Pattern)
		if err != nil {
			return nil, fmt.Errorf("layer replay: pattern: %w", err)
		}
		model := cer.LearnModel(cfg.TrainSymbols, cfg.Alphabet, cfg.ModelOrder, 1)
		if fc, err = cer.NewForecaster(pat, cfg.Alphabet, model, 200, cfg.Theta); err != nil {
			return nil, fmt.Errorf("layer replay: forecaster: %w", err)
		}
	}

	var (
		lines   [][]byte // every N-Triples line the real-time layer would publish
		seq     int
		wire    = make([][]byte, layerSlice)
		reps    = make([]mobility.Report, layerSlice)
		ok      = make([]bool, layerSlice)
		pred    = make([][]geo.Point, layerSlice)
		cps     []synopses.CriticalPoint
		scratch mobility.Report
	)
	criticals := func(cps []synopses.CriticalPoint) {
		var triples []rdf.Triple
		timed(lRDFGen, func() {
			for _, cp := range cps {
				triples = append(triples, gen.Generate(rdfgen.CriticalPointRecord(seq, cp))...)
				seq++
			}
		})
		var links []linkdisc.Link
		timed(lLinkdisc, func() {
			for _, cp := range cps {
				links = append(links, disc.ProcessPoint(cp.ID, cp.Time, cp.Pos)...)
			}
		})
		for _, l := range links {
			triples = append(triples, l.Triple())
		}
		timed(lDash, func() {
			for _, l := range links {
				dash.AddLink(l)
			}
		})
		timed(lFormat, func() {
			for _, t := range triples {
				lines = append(lines, []byte(t.String()))
			}
		})
		out.triples += len(triples)
		out.criticals += len(cps)
		if fc != nil {
			timed(lCER, func() {
				for _, cp := range cps {
					fc.Process(string(cp.Type))
				}
			})
		}
	}
	for base := 0; base < len(reports); base += layerSlice {
		batch := reports[base:min(base+layerSlice, len(reports))]
		n := len(batch)
		timed(lEncode, func() {
			arena := make([]byte, 0, n*96)
			for i := range batch {
				s := len(arena)
				arena = batch[i].AppendBinary(arena)
				wire[i] = arena[s:]
			}
		})
		timed(lDecode, func() {
			for i := 0; i < n; i++ {
				ok[i] = dec.Decode(wire[i], &scratch) == nil
				reps[i] = scratch
			}
		})
		timed(lArea, func() {
			for i := 0; i < n; i++ {
				if ok[i] && reps[i].Valid() {
					area.Update(reps[i])
				}
			}
		})
		timed(lFLP, func() {
			for i := 0; i < n; i++ {
				pred[i] = nil
				if !ok[i] || !reps[i].Valid() {
					continue
				}
				p, seen := preds[reps[i].ID]
				if !seen {
					p = flp.NewRMFStar(sample)
					preds[reps[i].ID] = p
				}
				p.Observe(reps[i])
				pred[i] = p.Predict(predictSteps)
			}
		})
		cps = cps[:0]
		timed(lSynopses, func() {
			for i := 0; i < n; i++ {
				if ok[i] {
					cps = append(cps, sg.Process(reps[i])...)
				}
			}
		})
		timed(lProfiler, func() {
			for i := 0; i < n; i++ {
				if ok[i] && reps[i].Valid() {
					prof.Observe(reps[i])
				}
			}
		})
		timed(lDash, func() {
			for i := 0; i < n; i++ {
				if ok[i] && reps[i].Valid() {
					dash.UpdatePosition(reps[i])
					if pred[i] != nil {
						dash.SetPrediction(reps[i].ID, pred[i])
					}
				}
			}
			for _, cp := range cps {
				dash.AddCritical(cp)
			}
		})
		criticals(cps)
	}
	var ends []synopses.CriticalPoint
	timed(lSynopses, func() { ends = sg.Flush() })
	criticals(ends)
	out.link = disc.Stats()

	// Batch layer: one N-Triples record per line, parsed and loaded in
	// 10k-triple batches as BuildKnowledgeGraph does.
	st := store.New(cellConfig(), store.NewVerticalPartitioning())
	var batch []rdf.Triple
	for base := 0; base < len(lines); base += layerSlice {
		chunk := lines[base:min(base+layerSlice, len(lines))]
		timed(lParse, func() {
			for _, l := range chunk {
				ts, err := rdf.ReadNTriples(bytes.NewReader(l))
				if err == nil {
					batch = append(batch, ts...)
				}
			}
		})
		if len(batch) >= 10_000 || base+layerSlice >= len(lines) {
			timed(lLoad, func() { st.Load(batch) })
			batch = batch[:0]
		}
	}
	if st.Len() != out.triples {
		return nil, fmt.Errorf("layer replay: store holds %d triples, generated %d", st.Len(), out.triples)
	}
	return out, nil
}

// ns, allocs and bytesOf are a layer's totals over the whole replay.
func (l *layerReplay) ns(name string) float64 {
	c := l.cost[name]
	if c == nil {
		return 0
	}
	return float64(c.ns)
}

func (l *layerReplay) allocs(name string) float64 {
	if c := l.cost[name]; c != nil {
		return float64(c.objects)
	}
	return 0
}

func (l *layerReplay) bytesOf(name string) float64 {
	if c := l.cost[name]; c != nil {
		return float64(c.bytes)
	}
	return 0
}
