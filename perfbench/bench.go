package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shardmanager"
	"repro/internal/taskservice"
)

// bench is one simulated deployment under one workload.
type bench struct {
	f       fleet
	seed    int64
	tr      *tracer
	c       *cluster.Cluster
	jobs    []string
	mirrors []*taskservice.FeedClient
	cpuProf *bytes.Buffer // traced run: CPU profile of the measured phase

	actErrors     atomic.Int64
	feedBytes     int64
	scalerActions int
	mirrorErrors  int

	// Task-source observations, made inside the Task Manager's Index call.
	lastIdx         *taskservice.SnapshotIndex
	lastVersion     int
	indexCalls      int64
	indexNewVersion int64
	fresh           []seenIndex // indexes first served since the last probe
	seq             uint64      // orders index sightings against writes

	// The update stream and its actuation probes.
	updRng   *rand.Rand
	order    []int // seeded permutation of jobs: updates visit them round-robin
	nextJob  int
	counts   map[string]int // task count last written per job
	written  int
	writeErr int
	acts     []*actProbe
	pending  map[string]*actProbe
	late     int // superseded before actuation, or never actuated
	actLat   []float64

	// Host failures and their failover probes.
	killRng *rand.Rand
	victim  string
	fos     []failProbe
	foLat   []float64

	sloIn, sloAll int
	reserved      []float64

	problems []string
}

// seenIndex is a snapshot index the moment a Task Manager was first served
// it, with the instance watermark then: every task instance started later
// was started from this index or a newer one.
type seenIndex struct {
	idx *taskservice.SnapshotIndex
	wm  uint64
	seq uint64
}

// actProbe follows one job update from its write to the moment every input
// partition of the job is owned by an instance started from an index that
// carries the update.
type actProbe struct {
	job       string
	wrote     time.Time
	seq       uint64
	pkg       string // target package version, or
	count     int    // target task count
	published bool
	wm        uint64
	done      bool
}

type failProbe struct {
	job    string
	killed time.Time
}

type update struct {
	job   string
	pkg   string
	count int
}

func newBench(f fleet, seed int64, traced bool) *bench {
	b := &bench{
		f:       f,
		seed:    seed,
		tr:      &tracer{on: traced},
		counts:  make(map[string]int),
		pending: make(map[string]*actProbe),
		updRng:  seedStream(seed, 2),
		killRng: seedStream(seed, 3),
	}
	for i := 0; i < f.jobs; i++ {
		b.jobs = append(b.jobs, jobName(i))
	}
	b.order = b.updRng.Perm(f.jobs)
	return b
}

func (b *bench) failf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(b.f.name+": "+format, args...))
}

// setup builds the cluster and brings the whole fleet to running. The
// fleet counts as running at the first monitor interval at which every
// configured task runs, so set-up always includes the first health pass.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	c, err := cluster.New(b.clusterConfig())
	if err != nil {
		return 0, err
	}
	b.c = c
	c.Start()
	b.takeOver()
	if err := b.addJobs(); err != nil {
		return 0, err
	}
	want := b.f.jobs * b.f.tasksPerJob
	for i := 0; ; i++ {
		c.Run(b.f.tick)
		if c.TotalRunningTasks() < want && i < 30 {
			continue // cheap test first; the scaler may move the total
		}
		short, err := b.shortJobs()
		if err != nil {
			return 0, err
		}
		if short == 0 {
			break
		}
		if i >= 30 {
			b.failf("fleet not running after set-up: %d jobs short of tasks", short)
			break
		}
	}
	for i := 0; i < b.f.mirrors; i++ {
		m := c.NewRemoteTaskService(fmt.Sprintf("mirror-%d", i))
		if err := m.Sync(0); err != nil {
			return 0, fmt.Errorf("initial mirror sync: %w", err)
		}
		b.mirrors = append(b.mirrors, m)
	}
	if len(b.mirrors) > 0 {
		c.Clk.TickEvery(mirrorInterval, b.pumpMirrors)
	}
	return time.Since(t0), nil
}

func (b *bench) pumpMirrors() {
	for _, m := range b.mirrors {
		tok := b.tr.begin(siteMirrorSync, false)
		err := m.Sync(0)
		b.tr.end(tok)
		if err != nil {
			b.mirrorErrors++
		}
	}
}

// instanceWatermark reads the task-instance sequence: the engine numbers
// every instance it creates, and a spare task spec costs one number.
func instanceWatermark() uint64 {
	return instanceSeq(engine.NewTask(engine.TaskSpec{Job: "watermark"}, nil, nil, nil).Instance())
}

// instanceSeq parses the sequence of an instance ID "<job>#<index>@<seq>".
func instanceSeq(instance string) uint64 {
	n, _ := strconv.ParseUint(instance[strings.LastIndexByte(instance, '@')+1:], 10, 64)
	return n
}

func (b *bench) sawIndex(idx *taskservice.SnapshotIndex) {
	b.indexCalls++
	if v := idx.Version(); v != b.lastVersion {
		b.indexNewVersion++
		b.lastVersion = v
	}
	if idx != b.lastIdx {
		b.lastIdx = idx
		b.seq++
		b.fresh = append(b.fresh, seenIndex{idx: idx, wm: instanceWatermark(), seq: b.seq})
	}
}

// nextUpdate draws the next update of the seeded stream. Jobs are visited
// round-robin in a seeded order, so the same job is updated again only
// after every other job was.
func (b *bench) nextUpdate() update {
	job := b.jobs[b.order[b.nextJob%len(b.order)]]
	b.nextJob++
	if b.updRng.Float64() < b.f.complexShare {
		n := b.f.tasksPerJob + 1
		if b.counts[job] == n {
			n = b.f.tasksPerJob
		}
		b.counts[job] = n
		return update{job: job, count: n}
	}
	return update{job: job, pkg: "u" + strconv.Itoa(b.nextJob)}
}

// write runs on the simulation goroutine at the update's arrival instant.
func (b *bench) write(u update) {
	if p := b.pending[u.job]; p != nil {
		p.done = true
		b.late++
	}
	tok := b.tr.begin(siteWrite, false)
	var err error
	if u.count > 0 {
		err = b.c.Jobs.SetTaskCount(u.job, config.LayerOncall, u.count)
	} else {
		err = b.c.Jobs.SetPackageVersion(u.job, u.pkg)
	}
	b.tr.end(tok)
	b.written++
	if err != nil {
		b.writeErr++
		delete(b.pending, u.job)
		return
	}
	b.seq++
	p := &actProbe{job: u.job, wrote: b.c.Clk.Now(), seq: b.seq, pkg: u.pkg, count: u.count}
	b.pending[u.job] = p
	b.acts = append(b.acts, p)
}

// carries reports whether idx holds the update's target spec for the job.
func carries(idx *taskservice.SnapshotIndex, p *actProbe) bool {
	id := engine.TaskID(p.job, 0)
	for _, is := range idx.ShardSpecs(shardmanager.ShardOf(id, idx.NumShards())) {
		if is.ID == id {
			if p.count > 0 {
				return is.Spec.TaskCount == p.count
			}
			return is.Spec.PackageVersion == p.pkg
		}
	}
	return false
}

// ownedSince reports whether every input partition of job is owned by an
// instance newer than wm.
func (b *bench) ownedSince(job string, wm uint64) bool {
	for part := 0; part < b.f.partitions; part++ {
		owner, ok := b.c.Ckpt.Owner(job, part)
		if !ok || instanceSeq(owner) <= wm {
			return false
		}
	}
	return true
}

// probe runs between timed steps and reads only public state.
func (b *bench) probe() {
	now := b.c.Clk.Now()
	for _, si := range b.fresh {
		for _, p := range b.acts {
			if !p.done && !p.published && si.seq > p.seq && carries(si.idx, p) {
				p.published, p.wm = true, si.wm
			}
		}
	}
	b.fresh = b.fresh[:0]
	keep := b.acts[:0]
	for _, p := range b.acts {
		if p.done {
			continue
		}
		if p.published && b.ownedSince(p.job, p.wm) {
			b.actLat = append(b.actLat, now.Sub(p.wrote).Seconds())
			delete(b.pending, p.job)
			continue
		}
		keep = append(keep, p)
	}
	b.acts = keep
	fos := b.fos[:0]
	for _, p := range b.fos {
		if b.c.Ckpt.LiveOwners(p.job) == b.f.partitions {
			b.foLat = append(b.foLat, now.Sub(p.killed).Seconds())
			continue
		}
		fos = append(fos, p)
	}
	b.fos = fos
}

// unrecovered counts the host failures that left a job not running again.
// Open failover probes are kept in kill order.
func (b *bench) unrecovered() int {
	n := 0
	var last time.Time
	for _, p := range b.fos {
		if !p.killed.Equal(last) {
			n++
			last = p.killed
		}
	}
	return n
}

// kill fails a seeded host, restores the previous victim, and opens a
// failover probe for every job that lost a partition owner.
func (b *bench) kill() error {
	c := b.c
	hosts := c.Hosts()
	victim := hosts[b.killRng.Intn(len(hosts))]
	for victim == b.victim {
		victim = hosts[b.killRng.Intn(len(hosts))]
	}
	before := make([]int, len(b.jobs))
	for i, job := range b.jobs {
		before[i] = c.Ckpt.LiveOwners(job)
	}
	if err := c.KillHost(victim); err != nil {
		return err
	}
	now := c.Clk.Now()
	for i, job := range b.jobs {
		if c.Ckpt.LiveOwners(job) < before[i] {
			b.fos = append(b.fos, failProbe{job: job, killed: now})
		}
	}
	if b.victim != "" {
		if err := c.RestoreHost(b.victim); err != nil {
			return err
		}
	}
	b.victim = victim
	return nil
}

// sampleSLO reads the monitor's last job signals, which leaves every cache
// of the program as it was: the share of jobs within their lag SLO, and the
// cores the fleet reserves.
func (b *bench) sampleSLO() {
	c := b.c
	var cores float64
	for _, job := range c.JobNames() {
		sig, ok := c.JobSignals(job)
		if !ok {
			continue
		}
		b.sloAll++
		if sig.TimeLagged(0) <= sig.SLOSeconds {
			b.sloIn++
		}
		cores += sig.TaskResources.CPUCores * float64(sig.TaskCount)
	}
	b.reserved = append(b.reserved, cores)
}

// meter accumulates the cost of the timed RunFor calls.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64
	events    int
	sample    []rtmetrics.Sample
}

func newMeter() *meter {
	return &meter{sample: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (m *meter) allocated() uint64 {
	rtmetrics.Read(m.sample)
	return m.sample[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) run(c *cluster.Cluster, d time.Duration) {
	a0, c0 := m.allocated(), cpuTime()
	w0 := time.Now()
	m.events += c.Clk.RunFor(d)
	m.wall += time.Since(w0)
	m.cpu += cpuTime() - c0
	m.alloc += m.allocated() - a0
}

// counters are the program's own cumulative counters, read at the
// measured phase's edges.
type counters struct {
	tmStarted, tmStopped, tmRestarted, tmStartErrors, tmReboots int
	smMoves, smFailovers, smAddErrors, smDropErrors             int
	syRounds, sySimple, syComplex, syFailures                   int
	syExamined, syConverged                                     int
	scUps, scDowns, scVetoed                                    int
	feedHits, feedMisses, feedResyncs                           int64
	mirrorApplied                                               int64
	journal                                                     uint64
	mergedHits, mergedMisses                                    int64
	violations                                                  int
}

func (b *bench) counters() counters {
	c := b.c
	var k counters
	for _, tm := range c.TaskManagers() {
		s := tm.Stats()
		k.tmStarted += s.Started
		k.tmStopped += s.Stopped
		k.tmRestarted += s.Restarted
		k.tmStartErrors += s.StartErrors
		k.tmReboots += s.Reboots
	}
	sm := c.SM.Stats()
	k.smMoves, k.smFailovers, k.smAddErrors, k.smDropErrors = sm.Moves, sm.Failovers, sm.AddErrors, sm.DropErrors
	sy := c.Syncer.Stats()
	k.syRounds, k.sySimple, k.syComplex, k.syFailures = sy.Rounds, sy.SimpleSyncs, sy.ComplexSyncs, sy.Failures
	k.syExamined, k.syConverged = sy.JobsExamined, sy.JobsConverged
	if c.Scaler != nil {
		s := c.Scaler.Stats()
		k.scUps = s.HorizontalUps + s.VerticalCPUUps + s.VerticalMemoryUps + s.VerticalDiskUps
		k.scDowns = s.HorizontalDowns + s.VerticalMemoryDowns
		k.scVetoed = s.DownscalesVetoed + s.ScaleUpsDenied
	}
	fs := c.Feed.Stats()
	k.feedHits, k.feedMisses, k.feedResyncs = fs.FrameHits, fs.FrameMisses, fs.Resyncs
	for _, m := range b.mirrors {
		k.mirrorApplied += m.Stats().Applied
	}
	k.journal = c.Store.JournalHead()
	k.mergedHits, k.mergedMisses = c.Store.MergedCacheStats()
	k.violations = c.Ckpt.Violations()
	return k
}

// phase is the outcome of one measured phase.
type phase struct {
	span         time.Duration
	m            *meter
	k0, k1       counters
	seriesAtEnd  int
	droppedAtEnd uint64
	heapMB       float64
	topSpans     time.Duration

	// The workload's operations: updates written and hosts killed. An
	// update fails when it is not actuated before its job's next update
	// or the end of the run, or its write or sync fails; a host failure
	// fails when a job it hit is not running again by the end.
	attempted, failed int
	kills             int
	// Task starts the Task Managers attempted, and those refused (every
	// refused duplicate lease is one). The program retries them on its
	// own, and the count varies by one or two between runs of one seed,
	// so they count in ok_pct, not in the workload's operations.
	starts, startErrors int
}

// measure runs the workload for span of simulated time after warm-up,
// timing only the RunFor calls; probes, kills and samples run between
// them. Updates stop in the final drain; a workload that kills a host
// there does so early enough for every probe to close before the end.
func (b *bench) measure(span time.Duration) *phase {
	c := b.c
	f := b.f
	c.Run(f.warmup)

	ph := &phase{m: newMeter()}
	ph.k0 = b.counters()
	b.resetObservations()
	if b.cpuProf != nil {
		if err := pprof.StartCPUProfile(b.cpuProf); err != nil {
			b.failf("cpu profile: %v", err)
		}
	}

	start := c.Clk.Now()
	end := start.Add(span)
	quiet := end.Add(-f.drain)
	var nextArrival time.Time
	if f.updatesPerSec > 0 {
		nextArrival = start.Add(b.interArrival())
	}
	var kills []time.Time
	if f.killEvery > 0 {
		for w := start; !w.Add(f.killEvery).After(quiet); w = w.Add(f.killEvery) {
			offset := f.killEvery/4 + time.Duration(b.killRng.Float64()*float64(f.killEvery/2))
			kills = append(kills, w.Add(offset))
		}
	}
	if f.drainKill {
		offset := f.drain/4 + time.Duration(b.killRng.Float64()*float64(f.drain/4))
		kills = append(kills, quiet.Add(offset))
	}
	nextSLO := start
	now := start
	for now.Before(end) {
		step := time.Minute
		if len(b.acts) > 0 || len(b.fos) > 0 || now.Before(quiet) && f.updatesPerSec > 0 {
			step = time.Second
		}
		// Steps end on whole multiples of step from the start, so probe
		// instants never line up with the fractional write and kill
		// instants they are measured from.
		target := start.Add((now.Sub(start)/step + 1) * step)
		if target.After(end) {
			target = end
		}
		if len(kills) > 0 && kills[0].Before(target) {
			target = kills[0]
		}
		if nextSLO.After(now) && nextSLO.Before(target) {
			target = nextSLO
		}
		for f.updatesPerSec > 0 && !nextArrival.After(target) && nextArrival.Before(quiet) {
			u := b.nextUpdate()
			c.Clk.AfterFunc(nextArrival.Sub(now), func() { b.write(u) })
			nextArrival = nextArrival.Add(b.interArrival())
		}
		ph.m.run(c, target.Sub(now))
		now = target
		b.probe()
		if len(kills) > 0 && !kills[0].After(now) {
			kills = kills[1:]
			ph.kills++
			if err := b.kill(); err != nil {
				b.failf("kill: %v", err)
			}
		}
		if !nextSLO.After(now) {
			b.sampleSLO()
			nextSLO = nextSLO.Add(sloSampleInterval)
		}
	}
	if b.cpuProf != nil {
		pprof.StopCPUProfile()
	}
	ph.span = span
	ph.topSpans = time.Duration(b.tr.topNs)
	ph.k1 = b.counters()
	ph.seriesAtEnd = len(c.Metrics.Names())
	ph.droppedAtEnd = c.Metrics.Dropped()

	b.late += len(b.acts)
	k0, k1 := ph.k0, ph.k1
	ph.startErrors = k1.tmStartErrors - k0.tmStartErrors
	ph.starts = (k1.tmStarted - k0.tmStarted) + ph.startErrors
	ph.attempted = b.written + ph.kills
	ph.failed = b.late + b.writeErr + (k1.syFailures - k0.syFailures) + b.unrecovered()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(c)
	return ph
}

// resetObservations starts the seam observations afresh for the measured
// phase, so set-up and warm-up calls count nowhere.
func (b *bench) resetObservations() {
	*b.tr = tracer{on: b.tr.on, origin: time.Now()}
	b.fresh = b.fresh[:0]
	b.indexCalls, b.indexNewVersion = 0, 0
	b.feedBytes = 0
	b.scalerActions = 0
	b.actErrors.Store(0)
}

func (b *bench) interArrival() time.Duration {
	return time.Duration(b.updRng.ExpFloat64() / b.f.updatesPerSec * float64(time.Second))
}

// shortJobs counts the jobs that do not run exactly their desired number
// of tasks.
func (b *bench) shortJobs() (int, error) {
	running := make(map[string]int)
	for _, tm := range b.c.TaskManagers() {
		for _, id := range tm.RunningTaskIDs() {
			running[id[:strings.LastIndexByte(id, '#')]]++
		}
	}
	short := 0
	for _, job := range b.jobs {
		cfg, _, err := b.c.Jobs.Desired(job)
		if err != nil {
			return 0, fmt.Errorf("desired config of %s: %w", job, err)
		}
		if running[job] != cfg.TaskCount {
			short++
		}
	}
	return short, nil
}

// check verifies the run's outputs after the measured phase.
func (b *bench) check(ph *phase) {
	c := b.c
	f := b.f
	if len(b.mirrors) > 0 {
		c.TaskSvc.Invalidate()
		local := c.TaskSvc.Index()
		for _, m := range b.mirrors {
			if err := m.Sync(0); err != nil {
				b.failf("final sync of %s: %v", m.ID(), err)
				continue
			}
			if !taskservice.IndexEqual(m.Index(), local) {
				b.failf("mirror %s index differs from the local Task Service", m.ID())
			}
		}
	}
	if short, err := b.shortJobs(); err != nil || short > 0 {
		b.failf("%d jobs not at full strength at the end of the run (%v)", short, err)
	}
	if f.scaler && (ph.k1.scUps == 0 || ph.k1.scDowns == 0) {
		b.failf("scaler made %d up and %d down decisions; want at least one of each", ph.k1.scUps, ph.k1.scDowns)
	}
	if b.mirrorErrors > 0 {
		b.failf("%d mirror syncs failed", b.mirrorErrors)
	}
	if f.updatesPerSec > 0 && len(b.actLat) == 0 {
		b.failf("no update was actuated")
	}
	if ph.kills > 0 && len(b.foLat) == 0 {
		b.failf("no failover was observed")
	}
}

// percentile interpolates linearly between the closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func durPercentile(ns []int64, p float64) time.Duration {
	vs := make([]float64, len(ns))
	for i, d := range ns {
		vs[i] = float64(d)
	}
	return time.Duration(percentile(vs, p))
}
