package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/shardmanager"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/wire"
)

// site is one layer boundary the benchmark times from outside the program.
type site int

const (
	siteSyncRound site = iota
	siteActStop
	siteActRedistribute
	siteActResume
	siteIndex
	siteHeartbeat
	siteReportLoads
	siteRegister
	siteAddShard
	siteDropShard
	siteCheckFailures
	siteRebalance
	siteScan
	siteCheck
	siteFeedPoll
	siteMirrorSync
	siteWrite
	numSites
)

var siteNames = [numSites]string{
	siteSyncRound:       "statesyncer.RunRound",
	siteActStop:         "actuator.StopJobTasks",
	siteActRedistribute: "actuator.RedistributeCheckpoints",
	siteActResume:       "actuator.ResumeJob",
	siteIndex:           "taskservice.Index",
	siteHeartbeat:       "shardmanager.Heartbeat",
	siteReportLoads:     "shardmanager.ReportShardLoads",
	siteRegister:        "shardmanager.Register",
	siteAddShard:        "taskmanager.AddShard",
	siteDropShard:       "taskmanager.DropShard",
	siteCheckFailures:   "shardmanager.CheckFailures",
	siteRebalance:       "shardmanager.Rebalance",
	siteScan:            "autoscaler.Scan",
	siteCheck:           "capacity.Check",
	siteFeedPoll:        "jobservice.PollFeed",
	siteMirrorSync:      "taskservice.FeedClient.Sync",
	siteWrite:           "jobservice.Update",
}

// maxSpans caps the span log written at exit; durations of every call are
// kept regardless, so percentiles never depend on the cap.
const maxSpans = 200_000

type span struct {
	site   site
	depth  int32
	parent int32 // index of the enclosing span, -1 at top level
	start  int64 // ns since the traced phase began
	dur    int64
}

// tracer records spans at the seams. When off, begin and end do nothing,
// so the untraced run pays only the wrappers' forwarding calls.
//
// Every seam but the actuator is called on the simulation goroutine, so
// those spans nest strictly and are kept on an open-span stack. The State
// Syncer may call the actuator from its worker pool, concurrently, always
// inside a RunRound span: actuator spans are leaves that take the open
// span as parent and never enter the stack.
type tracer struct {
	on     bool
	origin time.Time

	mu      sync.Mutex
	open    []int32
	spans   []span
	dropped int64
	durs    [numSites][]int64
	topAt   time.Time
	topNs   int64 // wall time covered by top-level spans
}

type token struct {
	s     site
	leaf  bool
	idx   int32
	start time.Time
}

func (t *tracer) begin(s site, leaf bool) token {
	if !t.on {
		return token{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{site: s, depth: int32(len(t.open)), parent: parent, start: now.Sub(t.origin).Nanoseconds()})
	} else {
		t.dropped++
	}
	if !leaf {
		if len(t.open) == 0 {
			t.topAt = now
		}
		t.open = append(t.open, idx)
	}
	return token{s: s, leaf: leaf, idx: idx, start: now}
}

func (t *tracer) end(tok token) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	d := now.Sub(tok.start).Nanoseconds()
	t.durs[tok.s] = append(t.durs[tok.s], d)
	if tok.idx >= 0 {
		t.spans[tok.idx].dur = d
	}
	if !tok.leaf {
		t.open = t.open[:len(t.open)-1]
		if len(t.open) == 0 {
			t.topNs += now.Sub(t.topAt).Nanoseconds()
		}
	}
}

// busy is the summed duration of every call at s.
func (t *tracer) busy(s site) time.Duration {
	var n int64
	for _, d := range t.durs[s] {
		n += d
	}
	return time.Duration(n)
}

// --- Task Source seam (Config.WrapTaskSource) ---

type tracedSource struct {
	inner taskmanager.TaskSource
	b     *bench
}

func (s tracedSource) Index() *taskservice.SnapshotIndex {
	tok := s.b.tr.begin(siteIndex, false)
	idx := s.inner.Index()
	s.b.tr.end(tok)
	s.b.sawIndex(idx)
	return idx
}

// --- Shard Manager seam (Config.WrapSM) and the Handler it registers ---

type tracedSM struct {
	inner taskmanager.ShardManagerClient
	tr    *tracer
}

func (s tracedSM) Register(id string, capacity config.Resources, h shardmanager.Handler) {
	tok := s.tr.begin(siteRegister, false)
	s.inner.Register(id, capacity, tracedHandler{h, s.tr})
	s.tr.end(tok)
}

func (s tracedSM) RegisterInRegion(id, region string, capacity config.Resources, h shardmanager.Handler) {
	tok := s.tr.begin(siteRegister, false)
	s.inner.RegisterInRegion(id, region, capacity, tracedHandler{h, s.tr})
	s.tr.end(tok)
}

func (s tracedSM) Heartbeat(id string) error {
	tok := s.tr.begin(siteHeartbeat, false)
	err := s.inner.Heartbeat(id)
	s.tr.end(tok)
	return err
}

func (s tracedSM) ReportShardLoad(shard shardmanager.ShardID, load config.Resources) {
	tok := s.tr.begin(siteReportLoads, false)
	s.inner.ReportShardLoad(shard, load)
	s.tr.end(tok)
}

func (s tracedSM) ReportShardLoads(loads map[shardmanager.ShardID]config.Resources) {
	tok := s.tr.begin(siteReportLoads, false)
	s.inner.ReportShardLoads(loads)
	s.tr.end(tok)
}

func (s tracedSM) NumShards() int { return s.inner.NumShards() }

func (s tracedSM) Mapping() map[shardmanager.ShardID]string { return s.inner.Mapping() }

type tracedHandler struct {
	inner shardmanager.Handler
	tr    *tracer
}

func (h tracedHandler) AddShard(id shardmanager.ShardID) error {
	tok := h.tr.begin(siteAddShard, false)
	err := h.inner.AddShard(id)
	h.tr.end(tok)
	return err
}

func (h tracedHandler) DropShard(id shardmanager.ShardID) error {
	tok := h.tr.begin(siteDropShard, false)
	err := h.inner.DropShard(id)
	h.tr.end(tok)
	return err
}

// --- Actuator seam (Config.WrapActuator) ---

type tracedActuator struct {
	inner  statesyncer.Actuator
	tr     *tracer
	errors *atomic.Int64
}

func (a tracedActuator) call(s site, f func() error) error {
	tok := a.tr.begin(s, true)
	err := f()
	a.tr.end(tok)
	if err != nil {
		a.errors.Add(1)
	}
	return err
}

func (a tracedActuator) StopJobTasks(job string) error {
	return a.call(siteActStop, func() error { return a.inner.StopJobTasks(job) })
}

func (a tracedActuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	return a.call(siteActRedistribute, func() error {
		return a.inner.RedistributeCheckpoints(job, partitions, oldCount, newCount)
	})
}

func (a tracedActuator) ResumeJob(job string) error {
	return a.call(siteActResume, func() error { return a.inner.ResumeJob(job) })
}

// --- Spec-feed seam (Config.WrapSpecFeed) ---

type tracedFeed struct {
	inner taskservice.SpecFeed
	b     *bench
}

func (f tracedFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	tok := f.b.tr.begin(siteFeedPoll, false)
	out, err := f.inner.PollFeed(req, buf)
	f.b.tr.end(tok)
	if err == nil {
		f.b.feedBytes += int64(len(out) - len(buf))
	}
	return out, err
}
