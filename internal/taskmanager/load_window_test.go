package taskmanager

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/metrics"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

const (
	rigShards = 4
	rigTick   = time.Minute
	rigWindow = 10 * time.Minute
)

// windowRig runs one Task Manager under the cluster's tick order — the
// manager's own tickers are registered first, then a data-plane tick
// that feeds input and calls Advance — next to a reference that records
// the same per-shard usage into a metrics.Store on every tick and reads
// each report's expected loads back with WindowAgg over the report
// interval: load reporting as it was done from a metric series.
type windowRig struct {
	t       *testing.T
	clk     *simclock.Sim
	tw      *tupperware.Cluster
	bus     *scribe.Bus
	ct      *tupperware.Container
	tm      *Manager
	ref     *metrics.Store
	reports []windowReport
	ticks   int
}

type windowReport struct {
	at        time.Time
	got, want map[shardmanager.ShardID]config.Resources
	sampled   map[shardmanager.ShardID]int // reference samples in the window
}

// refSM captures every batched report and the reference's expectation
// at the same instant.
type refSM struct {
	*shardmanager.Manager
	rig *windowRig
}

func (r *refSM) ReportShardLoads(loads map[shardmanager.ShardID]config.Resources) {
	r.rig.capture(loads)
	r.Manager.ReportShardLoads(loads)
}

func newWindowRig(t *testing.T, shards ...shardmanager.ShardID) *windowRig {
	t.Helper()
	clk := simclock.NewSim(epoch)
	r := &windowRig{
		t:   t,
		clk: clk,
		tw:  tupperware.NewCluster(),
		bus: scribe.NewBus(),
		ref: metrics.NewStore(clk, time.Hour),
	}
	store := jobstore.New()
	ts := taskservice.New(store, clk, 90*time.Second, rigShards)
	sm := &refSM{Manager: shardmanager.New(clk, shardmanager.Options{NumShards: rigShards}), rig: r}
	if err := r.tw.AddHost("h0", config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
		t.Fatal(err)
	}
	ct, err := r.tw.AllocateOn("h0", "tc0", config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
	if err != nil {
		t.Fatal(err)
	}
	r.ct = ct
	profile := func(spec engine.TaskSpec) *engine.Profile { return engine.DefaultProfile(spec.Operator) }
	r.tm = New(ct, clk, ts, sm, r.bus, engine.NewCheckpointStore(), profile, Options{LoadReportInterval: rigWindow})

	// Eight tasks over four shards: shards 1 and 3 each sum four tasks,
	// shards 0 and 2 stay idle.
	cfg := &config.JobConfig{
		Name:           "wj",
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      8,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "wj_in", Partitions: 16},
		Enforcement:    config.EnforceCgroup,
		SLOSeconds:     90,
	}
	if err := r.bus.CreateCategory("wj_in", 16); err != nil {
		t.Fatal(err)
	}
	doc, err := cfg.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	store.CommitRunning("wj", doc, 1)

	r.tm.Start()
	clk.TickEvery(rigTick, func() {
		r.ticks++
		// Uneven traffic, so successive samples differ.
		if err := r.bus.AppendEven("wj_in", int64(1+r.ticks%5)<<20, 1000); err != nil {
			t.Error(err)
		}
		r.tm.Advance(rigTick)
		r.sample()
	})
	for _, s := range shards {
		if err := r.tm.AddShard(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *windowRig) at(d time.Duration, f func()) { r.clk.AfterFunc(d, f) }

func (r *windowRig) kill() {
	if err := r.tw.SetHostHealthy("h0", false); err != nil {
		r.t.Fatal(err)
	}
	r.tm.OnContainerDead()
}

func (r *windowRig) restore() {
	if err := r.tw.SetHostHealthy("h0", true); err != nil {
		r.t.Fatal(err)
	}
}

func seriesName(s shardmanager.ShardID, res string) string {
	return fmt.Sprintf("shard.%d.%s", s, res)
}

// usage sums each owned shard's task stats, visiting tasks in
// descending ID order — not the order the manager accumulates in.
func (r *windowRig) usage() map[shardmanager.ShardID]config.Resources {
	u := make(map[shardmanager.ShardID]config.Resources)
	for _, s := range r.tm.Shards() {
		u[s] = config.Resources{}
	}
	type taskStat struct {
		id string
		st engine.Stats
	}
	var all []taskStat
	r.tm.EachTaskStat(func(id string, st *engine.Stats) { all = append(all, taskStat{id, *st}) })
	sort.Slice(all, func(i, j int) bool { return all[i].id > all[j].id })
	for _, ts := range all {
		s := shardmanager.ShardOf(ts.id, rigShards)
		l, owned := u[s]
		if !owned {
			continue
		}
		l.CPUCores += ts.st.CPUCores
		l.MemoryBytes += ts.st.MemoryBytes
		l.DiskBytes += ts.st.DiskBytes
		l.NetworkBps += ts.st.NetworkBps
		u[s] = l
	}
	return u
}

// sample records the reference series right after Advance, as the
// manager's own sampler used to.
func (r *windowRig) sample() {
	if !r.ct.Alive() {
		return
	}
	for s, l := range r.usage() {
		r.ref.Record(seriesName(s, "cpu"), l.CPUCores)
		r.ref.Record(seriesName(s, "mem"), float64(l.MemoryBytes))
		r.ref.Record(seriesName(s, "disk"), float64(l.DiskBytes))
		r.ref.Record(seriesName(s, "net"), float64(l.NetworkBps))
	}
}

// capture pairs a report with the reference's windowed means: shards
// with no samples in the window expect the instantaneous sum.
func (r *windowRig) capture(got map[shardmanager.ShardID]config.Resources) {
	want := make(map[shardmanager.ShardID]config.Resources)
	sampled := make(map[shardmanager.ShardID]int)
	inst := r.usage()
	for _, s := range r.tm.Shards() {
		agg := r.ref.WindowAgg(seriesName(s, "cpu"), rigWindow)
		sampled[s] = agg.Count
		if agg.Count == 0 {
			want[s] = inst[s]
			continue
		}
		want[s] = config.Resources{
			CPUCores:    agg.Mean(),
			MemoryBytes: int64(r.ref.WindowAgg(seriesName(s, "mem"), rigWindow).Mean()),
			DiskBytes:   int64(r.ref.WindowAgg(seriesName(s, "disk"), rigWindow).Mean()),
			NetworkBps:  int64(r.ref.WindowAgg(seriesName(s, "net"), rigWindow).Mean()),
		}
	}
	r.reports = append(r.reports, windowReport{at: r.clk.Now(), got: got, want: want, sampled: sampled})
}

// check runs the rig for d and asserts that every report equals the
// reference, and that the reports arrived at the ticker cadence.
func (r *windowRig) check(d time.Duration, wantReports int) {
	r.t.Helper()
	r.clk.RunFor(d)
	if len(r.reports) != wantReports {
		r.t.Fatalf("%d reports, want %d", len(r.reports), wantReports)
	}
	var cpu float64
	for _, rep := range r.reports {
		if len(rep.got) != len(rep.want) {
			r.t.Fatalf("%v: reported shards %v, want %v", rep.at, rep.got, rep.want)
		}
		for s, w := range rep.want {
			g, ok := rep.got[s]
			if !ok {
				r.t.Fatalf("%v: shard %d missing from report %v", rep.at, s, rep.got)
			}
			if !closeCPU(g.CPUCores, w.CPUCores) || g.MemoryBytes != w.MemoryBytes ||
				g.DiskBytes != w.DiskBytes || g.NetworkBps != w.NetworkBps {
				r.t.Fatalf("%v: shard %d reported %+v, reference %+v (%d samples)", rep.at, s, g, w, rep.sampled[s])
			}
			cpu += g.CPUCores
		}
	}
	if cpu <= 0 {
		r.t.Fatal("no report carried CPU load; the comparison is vacuous")
	}
}

// closeCPU compares CPU means summed in different orders: equal up to
// float64 rounding.
func closeCPU(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func (r *windowRig) report(at time.Duration) windowReport {
	r.t.Helper()
	for _, rep := range r.reports {
		if rep.at.Equal(epoch.Add(at)) {
			return rep
		}
	}
	r.t.Fatalf("no report at %v", at)
	return windowReport{}
}

func TestDrainedWindowMatchesSeriesWindow(t *testing.T) {
	t.Run("cadence", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2, 3)
		r.check(45*time.Minute, 4)
		// Tumbling: each report's window holds exactly the samples taken
		// since the previous report, never the one at its own instant —
		// ten, or nine for the first window, whose first tick is at 1 min.
		for i, rep := range r.reports {
			want := int(rigWindow / rigTick)
			if i == 0 {
				want--
			}
			for s, n := range rep.sampled {
				if n != want {
					t.Fatalf("%v: shard %d window has %d samples, want %d", rep.at, s, n, want)
				}
			}
		}
	})
	t.Run("drop and re-add inside one window", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2, 3)
		r.at(13*time.Minute+30*time.Second, func() { r.tm.DropShard(1) })
		r.at(16*time.Minute+30*time.Second, func() { r.tm.AddShard(1) })
		r.check(25*time.Minute, 2)
		if r.report(10*time.Minute).got[1].CPUCores <= 0 {
			t.Fatal("shard 1 hosts no load; the drop is vacuous")
		}
		if n := r.report(20 * time.Minute).sampled[1]; n != 7 {
			t.Fatalf("re-added shard's window has %d samples, want the 7 taken while owned", n)
		}
	})
	t.Run("drop and re-add across a window", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2, 3)
		r.at(23*time.Minute+30*time.Second, func() { r.tm.DropShard(3) })
		r.at(34*time.Minute+30*time.Second, func() { r.tm.AddShard(3) })
		r.check(45*time.Minute, 4)
		if r.report(20*time.Minute).got[3].CPUCores <= 0 {
			t.Fatal("shard 3 hosts no load; the drop is vacuous")
		}
		if _, ok := r.report(30 * time.Minute).got[3]; ok {
			t.Fatal("dropped shard still reported")
		}
		if n := r.report(40 * time.Minute).sampled[3]; n != 5 {
			t.Fatalf("re-added shard's window has %d samples, want the 5 since re-adding", n)
		}
	})
	t.Run("container dies and is restored inside one window", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2, 3)
		r.at(12*time.Minute+30*time.Second, r.kill)
		r.at(16*time.Minute+30*time.Second, r.restore)
		r.check(35*time.Minute, 3)
	})
	t.Run("container dies and is restored across a window", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2, 3)
		r.at(27*time.Minute+30*time.Second, r.kill)
		r.at(33*time.Minute+30*time.Second, r.restore)
		// The report at 30 min is skipped while dead; the one at 40 min
		// must hold only samples taken after the restore.
		r.check(45*time.Minute, 3)
		if n := r.report(40 * time.Minute).sampled[0]; n != 6 {
			t.Fatalf("window after restore has %d samples, want the 6 taken since", n)
		}
	})
	t.Run("fresh shard falls back to the instantaneous sum", func(t *testing.T) {
		r := newWindowRig(t, 0, 1, 2)
		r.at(19*time.Minute+30*time.Second, func() { r.tm.AddShard(3) })
		r.check(25*time.Minute, 2)
		if n, ok := r.report(20 * time.Minute).sampled[3]; !ok || n != 0 {
			t.Fatalf("fresh shard: reported=%v with %d samples, want reported with none", ok, n)
		}
	})
}

func TestLoadSamplingAllocatesNothing(t *testing.T) {
	r := newWindowRig(t, 0, 1, 2, 3)
	r.clk.RunFor(3 * time.Minute)
	if r.tm.TaskCount() == 0 {
		t.Fatal("no running tasks to sample")
	}
	tm := r.tm
	if n := testing.AllocsPerRun(100, func() {
		tm.mu.Lock()
		tm.sampleLoadsLocked()
		tm.mu.Unlock()
	}); n != 0 {
		t.Fatalf("steady-state sample allocates %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tm.mu.Lock()
		tm.drainLoadsLocked()
		tm.sampleLoadsLocked()
		tm.mu.Unlock()
	}); n != 0 {
		t.Fatalf("drain then sample allocates %v, want 0", n)
	}
}
