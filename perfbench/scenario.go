package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"datacron/internal/core"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

// Scenario sizing. The fleet follows the datacron CLI's maritime scenario
// (class mix, gap probability, 40 protected areas plus 40 ports as link
// statics, the areas as monitored regions), scaled to 300 vessels over one
// hour so one real-time run takes on the order of a second on a 2-CPU host.
//
// The log starts after two hours of simulation. Every vessel starts its
// voyage at the simulation's first instant: a cold log holds about 40% of
// its critical points in its first 2% of event time, and after one hour the
// fleet's manoeuvres are still in step — over ten seeds, the median critical
// point's place in the log had a quartile spread of 13% of its value. After
// two hours it is 8%. After three, the number of critical points varies
// twice as much from seed to seed (9% against 5%), and the graph build and
// the star joins with it.
const (
	fleetSize     = 300
	fleetDuration = time.Hour
	fleetWarmup   = 2 * time.Hour
	queryCount    = 300 // star joins per iteration
)

// region is the CLI's maritime extent.
var region = geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}

// mapSeed fixes the geography — protected areas, link-discovery ports and
// the ports the vessels sail between — to the CLI's default map. The run's
// seed draws the fleet on it: routes, timing, noise and gaps. With the map
// seeded too, where the traffic concentrates moved from seed to seed, and
// with it the median star-join latency, by about ±15%; on a fixed map, by
// about ±8%.
const mapSeed = 1

// cerPattern is the Figure 13 heading-reversal motif.
const cerPattern = "change_in_heading (speed_change)* change_in_heading"

// scenario is everything a workload needs, generated from the seed before
// any timer starts.
type scenario struct {
	seed    int64
	reports []mobility.Report
	base    core.Config // the CLI config: CER off
	withCER core.Config // base plus the Figure 13 forecaster
	queries []store.StarQuery
}

func newScenario(seed int64) *scenario {
	areas := gen.Areas(mapSeed, gen.ProtectedArea, 40, region, 3_000, 25_000)
	ports := gen.Ports(mapSeed+1, 40, region)
	var statics []linkdisc.StaticEntity
	var zones []lowlevel.Region
	for _, a := range areas {
		statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
		zones = append(zones, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	for _, p := range ports {
		statics = append(statics, linkdisc.StaticEntity{ID: p.ID, Geom: p.Pos})
	}
	base := core.Config{
		Domain:  mobility.Maritime,
		Link:    linkdisc.Config{Extent: region, MaskResolution: 8, NearDistanceM: 5_000},
		Statics: statics,
		Regions: zones,
	}
	v := fleetSize
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: seed, Region: region,
		Counts: map[gen.VesselClass]int{
			gen.Cargo: v / 2, gen.Tanker: v / 4,
			gen.Ferry: v / 8, gen.Fishing: v - v/2 - v/4 - v/8,
		},
		GapProb: 0.002,
		// The simulator's own default route ports, for the map's seed.
		Ports: gen.Ports(mapSeed, 24, region.Buffer(-20_000)),
	})
	reports := sim.Run(fleetWarmup + fleetDuration)
	logStart := gen.DefaultStart.Add(fleetWarmup)
	reports = reports[sort.Search(len(reports), func(i int) bool { return !reports[i].Time.Before(logStart) }):]

	// The CER symbol model is trained on the critical-point types of the
	// first third of the log, as the Figure 13 dashboard experiment does.
	alphabet := []string{
		string(synopses.TrajectoryStart), string(synopses.TrajectoryEnd),
		string(synopses.StopStart), string(synopses.StopEnd),
		string(synopses.SlowMotionStart), string(synopses.SlowMotionEnd),
		string(synopses.ChangeInHeading), string(synopses.SpeedChange),
		string(synopses.GapStart), string(synopses.GapEnd),
	}
	trainCps, _ := synopses.Summarize(synopses.DefaultMaritime(), reports[:len(reports)/3])
	train := make([]string, len(trainCps))
	for i, cp := range trainCps {
		train[i] = string(cp.Type)
	}
	withCER := base
	withCER.Pattern = cerPattern
	withCER.Alphabet = alphabet
	withCER.ModelOrder = 1
	withCER.Theta = 0.4
	withCER.TrainSymbols = train

	return &scenario{
		seed:    seed,
		reports: reports,
		base:    base,
		withCER: withCER,
		queries: queryMix(seed, queryCount),
	}
}

// cellConfig is the CLI's knowledge-graph cell configuration.
func cellConfig() store.STCellConfig {
	return store.STCellConfig{
		Extent: region, Cols: 48, Rows: 48,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}
}

// queryMix draws star joins over semantic nodes with a speed property. The
// selectivities are fixed and only the placement is seeded, so the latency
// distribution has the same shape for every seed. Spatial size and time
// window are spread evenly on a log scale — the size by rank, the window by
// a golden-ratio sequence so the two are uncorrelated — rather than taken
// from a few classes: with classes, the median latency falls on the step
// between two of them and jumps from run to run. Placement follows a Halton
// sequence shifted by the seed, which covers the region and the hour evenly
// for every seed, where independent random draws leave clusters and holes
// that differ from seed to seed.
func queryMix(seed int64, n int) []store.StarQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	shift := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	const (
		minSpan, maxSpan = 0.05, 1.0 // share of the region's side
		minWindow        = 5 * time.Minute
	)
	phi := (math.Sqrt(5) - 1) / 2
	out := make([]store.StarQuery, n)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		v := math.Mod(float64(i)*phi+0.5, 1)
		s := minSpan * math.Pow(maxSpan/minSpan, u)
		w := time.Duration(float64(minWindow) * math.Pow(float64(fleetDuration)/float64(minWindow), v))
		wLon := (region.MaxLon - region.MinLon) * s
		wLat := (region.MaxLat - region.MinLat) * s
		lon := region.MinLon + halton(i, 2, shift[0])*(region.MaxLon-region.MinLon-wLon)
		lat := region.MinLat + halton(i, 3, shift[1])*(region.MaxLat-region.MinLat-wLat)
		start := gen.DefaultStart.Add(fleetWarmup)
		if slack := fleetDuration - w; slack > 0 {
			start = start.Add(time.Duration(halton(i, 5, shift[2]) * float64(slack)))
		}
		out[i] = store.StarQuery{
			Patterns: []store.PO{
				{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
				{Pred: ontology.PropSpeed, Obj: nil},
			},
			Rect:      geo.Rect{MinLon: lon, MinLat: lat, MaxLon: lon + wLon, MaxLat: lat + wLat},
			TimeStart: start,
			TimeEnd:   start.Add(w),
		}
	}
	return out
}

// halton is the i-th point of the van der Corput sequence in the given base,
// rotated by shift modulo 1.
func halton(i, base int, shift float64) float64 {
	x, f := 0.0, 1.0/float64(base)
	for n := i + 1; n > 0; n /= base {
		x += f * float64(n%base)
		f /= float64(base)
	}
	return math.Mod(x+shift, 1)
}
