package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"datacron/internal/core"
)

// ShardRow is one point of the shard-scaling sweep.
type ShardRow struct {
	Shards    int
	Records   int64
	Wall      time.Duration
	PerSecond float64
	Speedup   float64 // vs the shards=1 row
	Identical bool    // output byte-identical to the shards=1 run
}

// ShardScalingResult is the shard-plane scaling experiment.
type ShardScalingResult struct {
	MaxProcs int
	Rows     []ShardRow
}

// BenchRows converts the sweep into benchrunner's per-experiment JSON rows,
// one per shard count, so BENCH_shard.json records the scaling
// curve rather than a single aggregate.
func (r *ShardScalingResult) BenchRows() []Row {
	rows := make([]Row, 0, len(r.Rows))
	for _, s := range r.Rows {
		rows = append(rows, Row{
			Name:          fmt.Sprintf("shard/pipeline/shards=%d", s.Shards),
			WallSeconds:   s.Wall.Seconds(),
			Records:       s.Records,
			RecordsPerSec: s.PerSecond,
		})
	}
	return rows
}

// shardCounts is the sweep axis.
var shardCounts = []int{1, 2, 4, 8}

// RunShardScaling measures how the real-time layer scales with the shard
// count: it runs the full layer (synopses, area monitoring, FLP, link
// discovery) at 1, 2, 4 and 8 shards over one seeded workload, checking
// every sharded run's output is byte-identical to the serial one. The
// speedup is bounded by GOMAXPROCS, since those stages are CPU-bound.
func RunShardScaling(w io.Writer, scale Scale) (*ShardScalingResult, error) {
	res := &ShardScalingResult{MaxProcs: runtime.GOMAXPROCS(0)}
	cfg, reports := checkpointWorkload(scale)

	var base *core.Pipeline
	var baseWall time.Duration
	for _, n := range shardCounts {
		opts := append(pipelineOpts(cfg), core.WithShards(n))
		p, err := core.New(opts...)
		if err != nil {
			return nil, err
		}
		if err := p.Ingest(context.Background(), reports); err != nil {
			return nil, err
		}
		start := time.Now()
		sum, err := p.RunRealTime(context.Background())
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		row := ShardRow{
			Shards: n, Records: sum.RawIn, Wall: wall,
			PerSecond: float64(sum.RawIn) / wall.Seconds(),
		}
		if n == 1 {
			base, baseWall = p, wall
			row.Speedup, row.Identical = 1, true
		} else {
			row.Speedup = baseWall.Seconds() / wall.Seconds()
			row.Identical, err = identicalOutputs(base.Broker, p.Broker)
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}

	fmt.Fprintf(w, "Shard scaling — %d raw reports, GOMAXPROCS=%d, scale=%s\n",
		len(reports), res.MaxProcs, scale)
	fmt.Fprintf(w, "%7s %10s %12s %12s %9s %10s\n",
		"shards", "records", "wall", "records/s", "speedup", "identical")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%7d %10d %12s %12.0f %8.2fx %10t\n",
			r.Shards, r.Records, r.Wall.Round(time.Millisecond), r.PerSecond, r.Speedup, r.Identical)
	}
	fmt.Fprintf(w, "speedup is bounded by GOMAXPROCS (CPU-bound stages)\n")

	for _, r := range res.Rows {
		if !r.Identical {
			return res, fmt.Errorf("experiments: shards=%d output diverged from the serial run", r.Shards)
		}
	}
	return res, nil
}
