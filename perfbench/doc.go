// Command perfbench is the repository's whole-system benchmark. It builds
// a full simulated Turbine deployment through cluster.New, drives one of
// three seeded workloads from the single simulation goroutine, checks the
// run's outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload diurnal --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it builds and measures five fresh deployments one after
// another, each over a fifth of the run's simulated span and with inputs
// of its own drawn from the seed. Set-up, wall, CPU, allocation and heap
// are reported as the median among the five, so a stall of the shared
// host moves one replica rather than the result; latencies, counts and
// shares pool the samples of all five. With --trace 1 it measures the
// first replica's inputs twice, untraced and traced, on one deployment
// each, and reports the per-layer metrics plus the tracing overhead.
// Per-layer numbers are taken from outside the program, at its public seams: the Config.WrapTaskSource,
// WrapSM, WrapActuator and WrapSpecFeed hooks, the Shard Manager Handler
// passed to Register, and the periodic loops whose built-in tickers the
// benchmark stops and drives itself at the same interval (State Syncer
// rounds, Auto Scaler scans, Capacity Manager checks, Shard Manager
// failure checks and rebalances). Both runs install the same seams and
// tickers, so they simulate the same timeline. The traced run writes its
// spans and the per-module reduction of its CPU profile under --out, and
// names the files on standard output before the result line.
//
// The self-test runs every workload on a shrunken fleet, untraced and
// traced, and checks the emitted metrics against BENCHMARK.json:
//
//	cd perfbench && go test .
//
// # Workloads
//
//   - diurnal: the steady-state fleet. Long-tail per-job rates on a diurnal
//     curve, Auto Scaler and Capacity Manager on, 1-minute ticks. Most of the
//     work is the data plane and the monitoring loop: taskmanager.Advance and
//     its per-shard load sampler, engine, metrics series, the cluster monitor,
//     health, the scaler scans, and Shard Manager load reports and rebalances.
//     A light stream of package releases (0.1/s) and a host failure every 30
//     minutes keep the actuation and failover probes fed.
//   - push: the actuation chain. Many small jobs, no input traffic, 5-minute
//     data-plane and monitor ticks, and an open-loop Poisson stream of job
//     updates (95% package releases, a simple sync; 5% task-count changes, a
//     complex sync). Four remote Task Service mirrors are pumped over the
//     in-process loopback every 15 s. Most of the work is jobservice writes,
//     jobstore commits and journal, State Syncer rounds, the actuator's
//     StopJobTasks fan-out, Task Service regeneration, the spec feed and
//     wire codec, and Task Manager refreshes. One host fails early in the
//     drain, after the update stream has stopped (see below for why).
//   - failover: shard movement. A host dies every 10 simulated minutes and the
//     previous victim comes back. It is the workload that drives Shard Manager
//     failure detection, failover and ADD/DROP moves, Task Manager shard
//     handoff and checkpoint-lease transfer, and it checks the paper's
//     downtime claim. Package releases arrive at 0.05/s.
//
// Every workload carries both probes, so every end-to-end metric is
// measured on every workload. An update is actuated when every input
// partition of its job is owned (engine.CheckpointStore.Owner) by a task
// instance started after a Task Manager was first served a snapshot index
// carrying the update; a host failure is recovered for a job when every
// partition it lost is owned again. Probes, host kills and samples run
// between the timed RunFor calls, at one-second resolution. The seed
// drives the per-job rates, the update arrivals and targets, and the kill
// victims and instants; the program receives only the generated inputs.
//
// The workload's operations are the updates written and the hosts killed.
// An update fails when it is not actuated before its job's next update or
// the end of the run, or its write or sync fails; a host failure fails when
// a job it hit is not running again by the end. The result line's attempted
// and failed count these. ok_pct also counts the task starts the Task
// Managers attempted, each refused start as a failure (every refused
// duplicate lease is one): 100 × (1 − (failed + refused starts) /
// (attempted + task starts)). Refused starts stay out of the result line
// because the program retries them on its own and their count varies by
// one or two between runs of one seed.
//
// # Baseline hot spots
//
// Found when the benchmark was written and left in place; later changes
// cite them by metric and workload:
//
//   - The Task Manager's per-shard load sampler records four series per
//     owned shard every tick into the shared metrics store, and they are
//     never released when a shard moves away: cpu.taskmanager_s and
//     cpu.metrics_s dominate diurnal, metrics.series and heap_mb grow with
//     the simulated span.
//   - cluster.JobHealth falls back to JobRunningTasks for every job the
//     monitor has not yet recorded, sorting every Task Manager's task IDs per
//     job: it dominates setup_s on push.
//   - The actuator's StopJobTasks visits every Task Manager for every complex
//     sync, O(Task Managers × tasks): actuator.stop_p99_ms on push.
//   - A restored host's Task Manager refreshes on its stale shard set before
//     its first heartbeat and is refused leases its old tasks' partitions now
//     hold elsewhere: engine.dup_attempts and taskmanager.start_errors on
//     failover, which count as failures in ok_pct.
//   - A host failure while task-count changes are in flight leaves about 1%
//     of the failed-over jobs one State Syncer interval (30 s) late: on push
//     with a host killed every 10 minutes, failover_p99_s swung between 58
//     and 87 s from seed to seed, as the 99th percentile fell on one side
//     or the other of the gap between the two modes, and with no task-count
//     changes the late mode vanished. That is why push kills its host after
//     the update stream; no workload measures this interaction yet.
package main
