package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/shardmanager"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/workload"
)

const mb = 1 << 20

// The periodic loops the benchmark drives itself. They are set explicitly
// in the cluster's options so the take-over tickers run at exactly the
// interval the built-in ones would.
const (
	syncInterval         = 30 * time.Second
	failureCheckInterval = 10 * time.Second
	rebalanceInterval    = 30 * time.Minute
	scanInterval         = time.Minute
	capacityInterval     = time.Minute
	mirrorInterval       = 15 * time.Second
	sloSampleInterval    = 10 * time.Minute
)

// fleet sizes one workload.
type fleet struct {
	name        string
	hosts       int
	shards      int
	jobs        int
	tasksPerJob int
	partitions  int
	taskCores   float64
	taskMem     int64
	tick        time.Duration // data-plane tick and monitor interval
	scaler      bool          // Auto Scaler and Capacity Manager on
	// meanRate is the mean input bytes/s per job (0 = no traffic). A
	// diurnal fleet spreads it over a seeded long tail on a daily curve;
	// otherwise every job gets it, constant.
	meanRate float64
	diurnal  bool
	// updatesPerSec is the open-loop Poisson rate of job updates in
	// simulated time; complexShare of them change the task count.
	updatesPerSec float64
	complexShare  float64
	killEvery     time.Duration // one host failure per window
	// drainKill fails one host early in the drain, after the update stream
	// has stopped, instead of during it.
	drainKill bool
	mirrors   int           // remote Task Services over the loopback
	warmup    time.Duration // simulated, untimed, after set-up
	// simPerSecond is the simulated span measured per --seconds, split
	// across the replicas. It is a fixed function of the flag, not of the
	// wall clock, so a faster program simulates the same timeline in less
	// time.
	simPerSecond time.Duration
	drain        time.Duration // final span with no new updates or kills
}

func fleets(tiny bool) map[string]fleet {
	diurnal := fleet{
		name: "diurnal", hosts: 120, shards: 4096, jobs: 500, tasksPerJob: 4, partitions: 16,
		taskCores: 1, taskMem: 2 << 30, tick: time.Minute, scaler: true,
		meanRate: 4 * mb, diurnal: true, updatesPerSec: 0.1, killEvery: 30 * time.Minute,
		warmup: 30 * time.Minute, simPerSecond: 48 * time.Minute, drain: 5 * time.Minute,
	}
	push := fleet{
		name: "push", hosts: 120, shards: 4096, jobs: 1500, tasksPerJob: 4, partitions: 8,
		taskCores: 0.25, taskMem: 512 << 20, tick: 5 * time.Minute,
		updatesPerSec: 5, complexShare: 0.05, drainKill: true, mirrors: 4,
		warmup: 10 * time.Minute, simPerSecond: 12 * time.Minute, drain: 5 * time.Minute,
	}
	failover := fleet{
		name: "failover", hosts: 48, shards: 1024, jobs: 1000, tasksPerJob: 4, partitions: 8,
		taskCores: 0.5, taskMem: 1 << 30, tick: time.Minute,
		meanRate: mb / 2, updatesPerSec: 0.05, killEvery: 10 * time.Minute,
		warmup: 10 * time.Minute, simPerSecond: 50 * time.Minute, drain: 5 * time.Minute,
	}
	if tiny {
		for _, f := range []*fleet{&diurnal, &push, &failover} {
			f.hosts, f.shards, f.jobs = 12, 256, f.jobs/20
		}
		push.updatesPerSec = 0.5
		diurnal.simPerSecond = 15 * time.Hour
		push.simPerSecond = 50 * time.Minute
		failover.simPerSecond = 150 * time.Minute
	}
	return map[string]fleet{"diurnal": diurnal, "push": push, "failover": failover}
}

// seedStream derives an independent generator per input kind, so changing
// how many draws one kind makes never shifts another.
func seedStream(seed int64, kind int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + kind))
}

// longTailRates returns n per-job rates with mean meanRate drawn from the
// log-normal fleet shape of Figure 5. The values are the distribution's n
// quantiles, shuffled by the seed: the seed decides which job is hot, while
// the fleet's total traffic, and so its total work, is the same for every
// seed.
func longTailRates(n int, meanRate float64, rng *rand.Rand) []float64 {
	const sigma = 1.1
	mu := math.Log(meanRate) - sigma*sigma/2
	out := make([]float64, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		out[i] = math.Exp(mu + sigma*math.Sqrt2*math.Erfinv(2*q-1))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func jobName(i int) string { return fmt.Sprintf("j%05d", i) }

func jobConfig(f fleet, name string) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "scuba_tailer", Version: "v0"},
		TaskCount:      f.tasksPerJob,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: f.taskCores, MemoryBytes: f.taskMem},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: f.partitions},
		Enforcement:    config.EnforceCgroup,
		MaxTaskCount:   f.partitions,
		SLOSeconds:     90,
	}
}

// clusterConfig wires the seams: every Task Manager's task source and
// Shard Manager link, the State Syncer's actuator, and the spec feed go
// through the benchmark's wrappers.
func (b *bench) clusterConfig() cluster.Config {
	f := b.f
	cfg := cluster.Config{
		Name:            "bench",
		Hosts:           f.hosts,
		NumShards:       f.shards,
		TickInterval:    f.tick,
		MonitorInterval: f.tick,
		EnableScaler:    f.scaler,
		EnableCapacity:  f.scaler,
		Syncer:          statesyncer.Options{Interval: syncInterval},
		ShardMgr: shardmanager.Options{
			FailureCheckInterval: failureCheckInterval,
			RebalanceInterval:    rebalanceInterval,
		},
		Capacity: capacity.Options{CheckInterval: capacityInterval},
		WrapTaskSource: func(_ string, inner taskmanager.TaskSource) taskmanager.TaskSource {
			return tracedSource{inner, b}
		},
		WrapSM: func(_ string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
			return tracedSM{inner, b.tr}
		},
		WrapActuator: func(inner statesyncer.Actuator) statesyncer.Actuator {
			return tracedActuator{inner, b.tr, &b.actErrors}
		},
		WrapSpecFeed: func(_ string, inner taskservice.SpecFeed) taskservice.SpecFeed {
			return tracedFeed{inner, b}
		},
	}
	if f.scaler {
		cfg.Scaler = autoscaler.Options{
			ScanInterval:        scanInterval,
			DownscaleAfter:      2 * time.Hour,
			DownscalePeakWindow: time.Hour,
		}
	}
	return cfg
}

// takeOver stops the built-in tickers of the loops that expose Stop and a
// public step, and drives the same step at the same interval, timed.
func (b *bench) takeOver() {
	c, clk := b.c, b.c.Clk
	every := func(d time.Duration, s site, step func()) {
		clk.TickEvery(d, func() {
			tok := b.tr.begin(s, false)
			step()
			b.tr.end(tok)
		})
	}
	c.Syncer.Stop()
	every(syncInterval, siteSyncRound, func() { c.Syncer.RunRound() })
	c.SM.Stop()
	every(failureCheckInterval, siteCheckFailures, func() { c.SM.CheckFailures() })
	every(rebalanceInterval, siteRebalance, func() { c.SM.Rebalance() })
	if c.Scaler != nil {
		c.Scaler.Stop()
		every(scanInterval, siteScan, func() { b.scalerActions += len(c.Scaler.Scan()) })
	}
	if c.CapMgr != nil {
		c.CapMgr.Stop()
		every(capacityInterval, siteCheck, c.CapMgr.Check)
	}
}

// addJobs provisions the fleet with seeded per-job traffic.
func (b *bench) addJobs() error {
	f := b.f
	var rates []float64
	if f.diurnal {
		rates = longTailRates(f.jobs, f.meanRate, seedStream(b.seed, 1))
	}
	for i, name := range b.jobs {
		spec := cluster.JobSpec{Config: jobConfig(f, name)}
		switch {
		case f.diurnal:
			spec.Pattern = workload.Diurnal(rates[i], rates[i]/2, 14, 0.01)
		case f.meanRate > 0:
			spec.Pattern = workload.Constant(f.meanRate)
		}
		if err := b.c.AddJob(spec); err != nil {
			return fmt.Errorf("add job %s: %w", name, err)
		}
	}
	return nil
}
