// Package store implements the datAcron knowledge graph store (Section
// 4.2.5): a partitioned, in-process spatio-temporal RDF store that stands in
// for the paper's Spark/HDFS/Parquet/Redis stack. Its defining feature is a
// dictionary encoding in which the integer identifier of a spatio-temporal
// entity embeds the spatio-temporal cell the entity falls in, so that
// queries with spatio-temporal constraints can prune candidates with integer
// arithmetic instead of decoding and testing geometries in a post-processing
// step. Multiple storage layouts (single triples table, vertical
// partitioning, property tables) are supported behind one interface, and
// scans and joins run across partitions in parallel.
package store

import (
	"fmt"
	"sync"
	"time"

	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
)

// ID is a dictionary-encoded term identifier.
//
// Layout for spatio-temporal entity IDs (stFlag set):
//
//	bit 63        : stFlag
//	bits 62..24   : spatio-temporal cell (spatial cell × time buckets + bucket)
//	bits 23..0    : per-cell sequence number
//
// Plain terms use ascending IDs without the flag.
type ID uint64

const (
	stFlag   ID = 1 << 63
	seqBits     = 24
	seqMask  ID = (1 << seqBits) - 1
	cellMask ID = (1<<63 - 1) &^ seqMask
)

// IsSpatioTemporal reports whether the ID carries an embedded cell.
func (id ID) IsSpatioTemporal() bool { return id&stFlag != 0 }

// Cell extracts the embedded spatio-temporal cell (valid only when
// IsSpatioTemporal).
func (id ID) Cell() uint64 { return uint64((id &^ stFlag) >> seqBits) }

// STCellConfig fixes the discretisation of space and time used by the
// encoding. TimeBuckets gives the number of buckets in the ring; bucket
// indices wrap modulo TimeBuckets, which is acceptable because queries are
// bounded by the archive's time span in practice.
type STCellConfig struct {
	Extent      geo.Rect
	Cols, Rows  int
	Epoch       time.Time
	BucketSize  time.Duration
	TimeBuckets int
}

func (c STCellConfig) withDefaults() STCellConfig {
	if c.Extent.IsEmpty() {
		c.Extent = geo.Rect{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90}
	}
	if c.Cols <= 0 {
		c.Cols = 64
	}
	if c.Rows <= 0 {
		c.Rows = 64
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.BucketSize <= 0 {
		c.BucketSize = time.Hour
	}
	if c.TimeBuckets <= 0 {
		c.TimeBuckets = 24 * 366
	}
	return c
}

// Dict is the two-way dictionary. It is safe for concurrent reads; writes
// are serialised internally (mirroring the Redis dictionary of the paper).
type Dict struct {
	cfg  STCellConfig
	grid *geo.Grid

	mu sync.RWMutex
	// byTerm keys by the term itself: terms are comparable, and the
	// dynamic type separates IRIs, blank nodes and literals (a literal's
	// datatype is part of its value), so equality is Term.Key equality
	// without building a key string per lookup.
	byTerm    map[rdf.Term]ID
	byID      map[ID]rdf.Term
	nextPlain ID
	nextSeq   map[uint64]ID // st cell -> next sequence
}

// NewDict returns an empty dictionary with the given cell configuration.
func NewDict(cfg STCellConfig) *Dict {
	cfg = cfg.withDefaults()
	return &Dict{
		cfg:       cfg,
		grid:      geo.NewGrid(cfg.Extent, cfg.Cols, cfg.Rows),
		byTerm:    make(map[rdf.Term]ID),
		byID:      make(map[ID]rdf.Term),
		nextPlain: 1, // 0 is reserved as "no ID"
		nextSeq:   make(map[uint64]ID),
	}
}

// stCell computes the combined spatio-temporal cell of a position and time.
func (d *Dict) stCell(p geo.Point, t time.Time) uint64 {
	spatial, _ := d.grid.CellIndex(p)
	bucket := int(t.Sub(d.cfg.Epoch)/d.cfg.BucketSize) % d.cfg.TimeBuckets
	if bucket < 0 {
		bucket += d.cfg.TimeBuckets
	}
	return uint64(spatial)*uint64(d.cfg.TimeBuckets) + uint64(bucket)
}

// Encode interns a plain term.
func (d *Dict) Encode(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	id = d.nextPlain
	d.nextPlain++
	d.byTerm[t] = id
	d.byID[id] = t
	return id
}

// EncodeSpatioTemporal interns a term that denotes a spatio-temporal entity
// (e.g. a semantic node), embedding the entity's cell into the ID. The
// returned ID approximates the entity's position and time by construction.
func (d *Dict) EncodeSpatioTemporal(t rdf.Term, p geo.Point, ts time.Time) ID {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	cell := d.stCell(p, ts)
	seq := d.nextSeq[cell]
	if seq > seqMask {
		// Cell overflow: fall back to a plain ID rather than corrupt cells.
		id = d.nextPlain
		d.nextPlain++
	} else {
		d.nextSeq[cell] = seq + 1
		id = stFlag | ID(cell<<seqBits) | seq
	}
	d.byTerm[t] = id
	d.byID[id] = t
	return id
}

// encodeNodes interns the batch's spatio-temporal subjects, those with a
// point geosparql:asWKT and a dtc:atTime in the batch, with cell-embedding
// IDs in order of first appearance. It runs before anything else in the
// batch is encoded, so a node mentioned as an object ahead of its own
// triples still gets its cell.
func (d *Dict) encodeNodes(triples []rdf.Triple) {
	type stInfo struct {
		pos  geo.Point
		ts   time.Time
		hasP bool
		hasT bool
	}
	nodes := make(map[rdf.Term]stInfo)
	for _, t := range triples {
		switch t.P {
		case ontology.PropAsWKT:
			if lit, ok := t.O.(rdf.Literal); ok {
				if g, err := geo.ParseWKT(lit.Value); err == nil {
					if p, ok := g.(geo.Point); ok {
						info := nodes[t.S]
						info.pos, info.hasP = p, true
						nodes[t.S] = info
					}
				}
			}
		case ontology.PropAtTime:
			if lit, ok := t.O.(rdf.Literal); ok {
				if ts, err := lit.AsTime(); err == nil {
					info := nodes[t.S]
					info.ts, info.hasT = ts, true
					nodes[t.S] = info
				}
			}
		}
	}
	for _, t := range triples {
		if info, ok := nodes[t.S]; ok {
			delete(nodes, t.S)
			if info.hasP && info.hasT {
				d.EncodeSpatioTemporal(t.S, info.pos, info.ts)
			}
		}
	}
}

// Lookup returns the interned ID of a term, or 0 when absent.
func (d *Dict) Lookup(t rdf.Term) ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byTerm[t]
}

// Decode returns the term of an ID.
func (d *Dict) Decode(id ID) (rdf.Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.byID[id]
	return t, ok
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byTerm)
}

// CoveringCells returns the combined spatio-temporal cells intersecting the
// given spatial rectangle and time interval, plus a flag per cell telling
// whether the cell is entirely inside the query volume (no precise
// post-check needed for its members).
func (d *Dict) CoveringCells(r geo.Rect, t0, t1 time.Time) (cells map[uint64]bool) {
	cells = make(map[uint64]bool)
	if t1.Before(t0) {
		return cells
	}
	spatialCells := d.grid.CoveringCells(r)
	b0 := int(t0.Sub(d.cfg.Epoch) / d.cfg.BucketSize)
	b1 := int(t1.Sub(d.cfg.Epoch) / d.cfg.BucketSize)
	for _, sc := range spatialCells {
		col, row := d.grid.ColRow(sc)
		cellRect := d.grid.CellRect(col, row)
		spatialInside := r.ContainsRect(cellRect)
		for b := b0; b <= b1; b++ {
			bucket := b % d.cfg.TimeBuckets
			if bucket < 0 {
				bucket += d.cfg.TimeBuckets
			}
			// A bucket is fully inside when its whole span lies in [t0, t1].
			bStart := d.cfg.Epoch.Add(time.Duration(b) * d.cfg.BucketSize)
			bEnd := bStart.Add(d.cfg.BucketSize)
			timeInside := !bStart.Before(t0) && !bEnd.After(t1)
			cells[uint64(sc)*uint64(d.cfg.TimeBuckets)+uint64(bucket)] = spatialInside && timeInside
		}
	}
	return cells
}

// CellMatcher tests cell membership of a spatio-temporal query volume in
// O(1) integer arithmetic per candidate: the spatial cells are enumerated
// once, the temporal buckets are a contiguous (possibly wrapped) range.
type CellMatcher struct {
	tb      int
	spatial map[int]bool // spatial cell -> rect fully contains the cell
	w0, w1  int          // wrapped bucket range, inclusive
	allTime bool         // query spans every bucket
	empty   bool
}

// Matcher builds a CellMatcher for the query volume.
func (d *Dict) Matcher(r geo.Rect, t0, t1 time.Time) *CellMatcher {
	m := &CellMatcher{tb: d.cfg.TimeBuckets, spatial: make(map[int]bool)}
	if t1.Before(t0) || r.IsEmpty() {
		m.empty = true
		return m
	}
	for _, sc := range d.grid.CoveringCells(r) {
		col, row := d.grid.ColRow(sc)
		m.spatial[sc] = r.ContainsRect(d.grid.CellRect(col, row))
	}
	b0 := int(t0.Sub(d.cfg.Epoch) / d.cfg.BucketSize)
	b1 := int(t1.Sub(d.cfg.Epoch) / d.cfg.BucketSize)
	if b1-b0+1 >= d.cfg.TimeBuckets {
		m.allTime = true
		return m
	}
	mod := func(b int) int {
		b %= d.cfg.TimeBuckets
		if b < 0 {
			b += d.cfg.TimeBuckets
		}
		return b
	}
	m.w0, m.w1 = mod(b0), mod(b1)
	return m
}

// Match reports whether the combined cell intersects the query volume, and
// whether it is certainly fully inside (members need no precise check).
// Fullness is conservative: boundary time buckets always request a precise
// check.
func (m *CellMatcher) Match(cell uint64) (hit, full bool) {
	if m.empty {
		return false, false
	}
	spatial := int(cell / uint64(m.tb))
	bucket := int(cell % uint64(m.tb))
	sFull, ok := m.spatial[spatial]
	if !ok {
		return false, false
	}
	if m.allTime {
		return true, false
	}
	var in bool
	if m.w0 <= m.w1 {
		in = bucket >= m.w0 && bucket <= m.w1
	} else { // wrapped range
		in = bucket >= m.w0 || bucket <= m.w1
	}
	if !in {
		return false, false
	}
	return true, sFull && bucket != m.w0 && bucket != m.w1
}

func (id ID) String() string {
	if id.IsSpatioTemporal() {
		return fmt.Sprintf("st(%d:%d)", id.Cell(), uint64(id&seqMask))
	}
	return fmt.Sprintf("%d", uint64(id))
}
