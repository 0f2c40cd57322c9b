package core

import (
	"context"
	"fmt"
	"io"

	"datacron/internal/analytics"
	"datacron/internal/msg"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

// This file provides the batch layer's persistence path — the stand-in for
// the paper's HDFS/Parquet archive: the RDF-ized stream can be exported as
// an N-Triples archive file and a knowledge graph can be rebuilt from one,
// so offline analytics survive process restarts.

// ExportTriples drains the pipeline's triples topic and writes every triple
// as N-Triples to w, returning the count written. The broker log is left
// intact (drain re-reads from offset zero). Records that do not parse are
// skipped, not written, and counted in "core.triples.malformed".
func (p *Pipeline) ExportTriples(w io.Writer) (int64, error) {
	recs, err := p.Broker.Drain(TopicTriples)
	if err != nil {
		return 0, err
	}
	var n int64
	var werr error
	malformed := batchRecords(recs, kgBatch, func(ts []rdf.Triple) {
		if werr == nil {
			if werr = rdf.WriteNTriples(w, ts); werr == nil {
				n += int64(len(ts))
			}
		}
	})
	p.obs.Counter("core.triples.malformed").Add(malformed)
	if werr != nil {
		return n, fmt.Errorf("core: exporting triples: %w", werr)
	}
	return n, nil
}

// LoadArchive builds a knowledge graph from an N-Triples archive produced
// by ExportTriples (or any N-Triples source).
func LoadArchive(r io.Reader, cfg store.STCellConfig, layout store.Layout) (*store.Store, error) {
	triples, err := rdf.ReadNTriples(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading archive: %w", err)
	}
	st := store.New(cfg, layout)
	archiveBatches(triples, kgBatch, st.Load)
	return st, nil
}

// archiveBatches hands triples to load in batches of at least limit triples
// (the last may be smaller). An archive carries no record times, so a batch
// is cut only where no spatio-temporal node straddles the cut: every triple
// that mentions a subject with a dtc:atTime, as subject or as object, lands
// in one batch, and the node gets its cell-embedding ID.
func archiveBatches(triples []rdf.Triple, limit int, load func([]rdf.Triple)) {
	last := make(map[rdf.Term]int) // node -> index of its last mention
	for _, t := range triples {
		if t.P == ontology.PropAtTime {
			last[t.S] = 0
		}
	}
	for i, t := range triples {
		for _, term := range [...]rdf.Term{t.S, t.O} {
			if _, ok := last[term]; ok {
				last[term] = i
			}
		}
	}
	start, reach := 0, 0
	for i, t := range triples {
		reach = max(reach, last[t.S], last[t.O])
		if i+1-start >= limit && reach <= i {
			load(triples[start : i+1])
			start = i + 1
		}
	}
	if start < len(triples) {
		load(triples[start:])
	}
}

// MinePatterns runs the offline Complex Event Analyzer over the archived
// synopses topic: it mines frequent critical-point sequences and returns
// the top-k non-redundant proposals, ready to compile into the online
// recogniser — Figure 2's batch-to-real-time feedback loop.
func (p *Pipeline) MinePatterns(cfg analytics.MineConfig, k int) ([]analytics.FrequentPattern, error) {
	recs, err := p.Broker.Drain(TopicSynopses)
	if err != nil {
		return nil, err
	}
	cps := make([]synopses.CriticalPoint, 0, len(recs))
	for _, rec := range recs {
		cp, err := synopses.UnmarshalCriticalPoint(rec.Value)
		if err != nil {
			continue
		}
		cps = append(cps, cp)
	}
	return analytics.ProposePatterns(cps, cfg, k), nil
}

// ReplayTopic republishes an archived topic's records into another broker,
// supporting the paper's "reprocess the archive through the real-time
// layer" workflows (e.g. re-running synopses with new thresholds). The
// context cancels the replay when the destination topic is bounded and
// producing blocks on backpressure.
func ReplayTopic(ctx context.Context, from *msg.Broker, topic string, to *msg.Broker) (int64, error) {
	recs, err := from.Drain(topic)
	if err != nil {
		return 0, err
	}
	if err := to.EnsureTopic(topic, 4); err != nil {
		return 0, err
	}
	var n int64
	for _, rec := range recs {
		if _, err := to.Produce(ctx, topic, rec.Key, rec.Value, rec.Time); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
