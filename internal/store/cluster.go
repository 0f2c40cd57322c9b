package store

import (
	"fmt"
	"sync"

	"datacron/internal/rdf"
)

// Cluster shards a knowledge graph across multiple Stores by subject hash —
// the in-process counterpart of the paper's distributed storage layer,
// where "parallel data processing is performed over RDF data stored in a
// distributed way". Star queries are subject-local by construction, so
// they execute shard-parallel with a final merge (scatter-gather); every
// shard shares one dictionary, mirroring the paper's central Redis
// dictionary next to distributed HDFS triples.
type Cluster struct {
	dict   *Dict
	shards []*Store
}

// NewCluster creates n shards over the given cell configuration; mkLayout
// builds each shard's physical layout.
func NewCluster(cfg STCellConfig, n int, mkLayout func() Layout) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{dict: NewDict(cfg)}
	for i := 0; i < n; i++ {
		s := New(cfg, mkLayout())
		s.dict = c.dict // shared dictionary
		s.idAsWKT = c.dict.Encode(rdf.NSGeo.IRI("asWKT"))
		s.idAtTime = c.dict.Encode(rdf.NSDatAcron.IRI("atTime"))
		c.shards = append(c.shards, s)
	}
	return c
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Len returns the total triple count across shards.
func (c *Cluster) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

// shardFor routes a subject key to its shard.
func (c *Cluster) shardFor(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(c.shards)))
}

// Load distributes a batch across shards by subject, loading shards in
// parallel. All triples of one subject land on one shard, so star joins
// never need cross-shard joins. The batch's nodes are interned in the shared
// dictionary first: a node's mentions on other shards would otherwise race
// its own shard to encode it.
func (c *Cluster) Load(triples []rdf.Triple) {
	c.dict.encodeNodes(triples)
	batches := make([][]rdf.Triple, len(c.shards))
	for _, t := range triples {
		i := c.shardFor(t.S.Key())
		batches[i] = append(batches[i], t)
	}
	var wg sync.WaitGroup
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, b []rdf.Triple) {
			defer wg.Done()
			c.shards[i].Load(b)
		}(i, b)
	}
	wg.Wait()
}

// StarJoin scatters the query to every shard in parallel and gathers the
// union of their results. Per-shard statistics are summed.
func (c *Cluster) StarJoin(q StarQuery, plan Plan) ([]rdf.Term, QueryStats, error) {
	type shardResult struct {
		terms []rdf.Term
		stats QueryStats
		err   error
	}
	results := make([]shardResult, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			terms, stats, err := s.StarJoin(q, plan)
			results[i] = shardResult{terms: terms, stats: stats, err: err}
		}(i, s)
	}
	wg.Wait()
	var out []rdf.Term
	var total QueryStats
	for i, r := range results {
		if r.err != nil {
			return nil, total, fmt.Errorf("store: shard %d: %w", i, r.err)
		}
		out = append(out, r.terms...)
		total.Candidates += r.stats.Candidates
		total.CellRejected += r.stats.CellRejected
		total.CellAccepted += r.stats.CellAccepted
		total.PreciseChecks += r.stats.PreciseChecks
		total.Results += r.stats.Results
	}
	return out, total, nil
}

// Query parses and executes the text dialect against the cluster.
func (c *Cluster) Query(q string, plan Plan) ([]rdf.Term, QueryStats, error) {
	parsed, err := ParseQuery(q)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return c.StarJoin(parsed, plan)
}
