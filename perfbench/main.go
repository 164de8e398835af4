package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// replicas is how many fresh deployments an untraced run builds and
// measures, one after another, each over an equal share of the run's
// simulated span and with inputs of its own drawn from the run's seed.
// Timings are reported as the median among them, so a short stall of the
// shared host moves one replica, not the result; latencies, counts and
// shares pool every replica's samples.
const replicas = 5

// replicaSeed is the seed replica r of a run draws its inputs from.
func replicaSeed(seed int64, r int) int64 { return seed*replicas + int64(r) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	tiny     bool // shrink every workload, for the self-test
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	files    []string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: diurnal, push or failover")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured length; each second is a fixed simulated span per workload")
	flag.IntVar(&trace, "trace", 0, "1 measures untraced and traced runs and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for the traced run's span and CPU files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, trace)
	for _, f := range res.files {
		fmt.Println("wrote", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	f, ok := fleets(o.tiny)[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want diurnal, push or failover)", o.workload)
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	span := time.Duration(o.seconds) * f.simPerSecond / replicas
	if !o.trace {
		var t tally
		for r := 0; r < replicas; r++ {
			runtime.GC() // release the previous deployment before timing the next
			b := newBench(f, replicaSeed(o.seed, r), false)
			d, err := b.setup()
			if err != nil {
				return nil, err
			}
			ph := b.measure(span)
			b.check(ph)
			summarize(b, ph)
			t.add(b, ph, d)
		}
		res := &result{Attempted: t.attempted, Failed: t.failed, problems: t.problems}
		res.Metrics = t.endToEnd()
		res.Correct = len(res.problems) == 0
		return res, nil
	}

	// Untraced, then traced, on fresh deployments of the first replica's
	// inputs.
	ub := newBench(f, replicaSeed(o.seed, 0), false)
	if _, err := ub.setup(); err != nil {
		return nil, err
	}
	uph := ub.measure(span)
	ub.check(uph)
	problems := ub.problems
	untracedWall := uph.m.wall
	ub = nil
	runtime.GC()

	tb := newBench(f, replicaSeed(o.seed, 0), true)
	if _, err := tb.setup(); err != nil {
		return nil, err
	}
	tb.cpuProf = new(bytes.Buffer)
	tph := tb.measure(span)
	tb.check(tph)
	problems = append(problems, tb.problems...)

	res := &result{Attempted: tph.attempted, Failed: tph.failed, problems: problems}
	res.Correct = len(problems) == 0
	cpu, err := reduceCPUProfile(tb.cpuProf.Bytes())
	if err != nil {
		return nil, err
	}
	res.Metrics = perLayer(tb, tph, cpu)
	res.Metrics["trace_overhead_pct"] = metric{100 * (tph.m.wall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds(), "%"}
	summarize(tb, tph)
	if o.out != "" {
		files, err := writeTrace(o, tb, cpu)
		if err != nil {
			return nil, err
		}
		res.files = files
	}
	return res, nil
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally pools what the end-to-end metrics need from each replica, so a
// deployment can be released before the next one is built.
type tally struct {
	setups, walls, cpus []float64 // s, s/h, s/h
	allocs, heaps       []float64 // MB/h, MB
	actLat, foLat       []float64
	reserved            []float64
	sloIn, sloAll       int
	attempted, failed   int
	starts, startErrors int
	problems            []string
}

func (t *tally) add(b *bench, ph *phase, setup time.Duration) {
	h := ph.span.Hours()
	t.setups = append(t.setups, setup.Seconds())
	t.walls = append(t.walls, ph.m.wall.Seconds()/h)
	t.cpus = append(t.cpus, ph.m.cpu.Seconds()/h)
	t.allocs = append(t.allocs, float64(ph.m.alloc)/1e6/h)
	t.heaps = append(t.heaps, ph.heapMB)
	t.actLat = append(t.actLat, b.actLat...)
	t.foLat = append(t.foLat, b.foLat...)
	t.reserved = append(t.reserved, b.reserved...)
	t.sloIn += b.sloIn
	t.sloAll += b.sloAll
	t.attempted += ph.attempted
	t.failed += ph.failed
	t.starts += ph.starts
	t.startErrors += ph.startErrors
	t.problems = append(t.problems, b.problems...)
}

func (t *tally) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":            {median(t.setups), "s"},
		"wall_s_per_sim_h":   {median(t.walls), "s/h"},
		"cpu_s_per_sim_h":    {median(t.cpus), "s/h"},
		"alloc_mb_per_sim_h": {median(t.allocs), "MB/h"},
		"heap_mb":            {median(t.heaps), "MB"},
		"actuate_p50_s":      {percentile(t.actLat, 50), "s"},
		"actuate_p99_s":      {percentile(t.actLat, 99), "s"},
		"failover_p50_s":     {percentile(t.foLat, 50), "s"},
		"failover_p99_s":     {percentile(t.foLat, 99), "s"},
		"jobs_in_slo_pct":    {100 * ratio(float64(t.sloIn), float64(t.sloAll)), "%"},
		"reserved_cores":     {mean(t.reserved), "cores"},
		"ok_pct": {100 * (1 - ratio(float64(t.failed+t.startErrors),
			float64(t.attempted+t.starts))), "%"},
	}
}

func perLayer(b *bench, ph *phase, cpu map[string]float64) map[string]metric {
	t := b.tr
	k0, k1 := ph.k0, ph.k1
	us := func(s site, p float64) float64 { return float64(durPercentile(t.durs[s], p)) / 1e3 }
	ms := func(s site, p float64) float64 { return float64(durPercentile(t.durs[s], p)) / 1e6 }
	n := func(s site) float64 { return float64(len(t.durs[s])) }
	count := func(v int) metric { return metric{float64(v), "count"} }
	actBusy := t.busy(siteActStop) + t.busy(siteActRedistribute) + t.busy(siteActResume)
	smBusy := t.busy(siteCheckFailures) + t.busy(siteRebalance) + t.busy(siteHeartbeat) +
		t.busy(siteReportLoads) + t.busy(siteRegister)
	feedPolls := float64((k1.feedHits - k0.feedHits) + (k1.feedMisses - k0.feedMisses))
	mergedAll := float64((k1.mergedHits - k0.mergedHits) + (k1.mergedMisses - k0.mergedMisses))
	out := map[string]metric{
		"taskmanager.started":           count(k1.tmStarted - k0.tmStarted),
		"taskmanager.stopped":           count(k1.tmStopped - k0.tmStopped),
		"taskmanager.restarted":         count(k1.tmRestarted - k0.tmRestarted),
		"taskmanager.start_errors":      count(k1.tmStartErrors - k0.tmStartErrors),
		"taskmanager.reboots":           count(k1.tmReboots - k0.tmReboots),
		"taskmanager.add_shard_p99_us":  {us(siteAddShard, 99), "us"},
		"taskmanager.drop_shard_p99_us": {us(siteDropShard, 99), "us"},

		"shardmanager.heartbeat_p99_us":      {us(siteHeartbeat, 99), "us"},
		"shardmanager.report_loads_p99_us":   {us(siteReportLoads, 99), "us"},
		"shardmanager.rebalance_p50_ms":      {ms(siteRebalance, 50), "ms"},
		"shardmanager.rebalance_p99_ms":      {ms(siteRebalance, 99), "ms"},
		"shardmanager.check_failures_p99_us": {us(siteCheckFailures, 99), "us"},
		"shardmanager.busy_s":                {smBusy.Seconds(), "s"},
		"shardmanager.moves":                 count(k1.smMoves - k0.smMoves),
		"shardmanager.failovers":             count(k1.smFailovers - k0.smFailovers),
		"shardmanager.add_errors":            count(k1.smAddErrors - k0.smAddErrors),
		"shardmanager.drop_errors":           count(k1.smDropErrors - k0.smDropErrors),

		"statesyncer.round_p50_ms":  {ms(siteSyncRound, 50), "ms"},
		"statesyncer.round_p99_ms":  {ms(siteSyncRound, 99), "ms"},
		"statesyncer.busy_s":        {t.busy(siteSyncRound).Seconds(), "s"},
		"statesyncer.rounds":        count(k1.syRounds - k0.syRounds),
		"statesyncer.simple_syncs":  count(k1.sySimple - k0.sySimple),
		"statesyncer.complex_syncs": count(k1.syComplex - k0.syComplex),
		"statesyncer.failures":      count(k1.syFailures - k0.syFailures),
		"statesyncer.examined_per_converged": {ratio(float64(k1.syExamined-k0.syExamined),
			float64(k1.syConverged-k0.syConverged)), "ratio"},

		"actuator.stop_p99_ms": {ms(siteActStop, 99), "ms"},
		"actuator.busy_s":      {actBusy.Seconds(), "s"},
		"actuator.calls":       {n(siteActStop) + n(siteActRedistribute) + n(siteActResume), "count"},
		"actuator.errors":      count(int(b.actErrors.Load())),

		"taskservice.index_p50_us":            {us(siteIndex, 50), "us"},
		"taskservice.index_p99_us":            {us(siteIndex, 99), "us"},
		"taskservice.index_busy_s":            {t.busy(siteIndex).Seconds(), "s"},
		"taskservice.index_calls":             {n(siteIndex), "count"},
		"taskservice.index_new_version_ratio": {ratio(float64(b.indexNewVersion), float64(b.indexCalls)), "ratio"},
		"taskservice.mirror_sync_p99_ms":      {ms(siteMirrorSync, 99), "ms"},
		"taskservice.mirror_applied":          {float64(k1.mirrorApplied - k0.mirrorApplied), "count"},

		"jobservice.write_p50_us":         {us(siteWrite, 50), "us"},
		"jobservice.write_p99_us":         {us(siteWrite, 99), "us"},
		"jobservice.feed_poll_p99_us":     {us(siteFeedPoll, 99), "us"},
		"jobservice.feed_bytes":           {float64(b.feedBytes), "B"},
		"jobservice.feed_frame_hit_ratio": {ratio(float64(k1.feedHits-k0.feedHits), feedPolls), "ratio"},
		"jobservice.feed_resyncs":         {float64(k1.feedResyncs - k0.feedResyncs), "count"},
		"jobstore.journal_appends":        {float64(k1.journal - k0.journal), "count"},
		"jobstore.merged_cache_hit_ratio": {ratio(float64(k1.mergedHits-k0.mergedHits), mergedAll), "ratio"},
		"autoscaler.scan_p50_ms":          {ms(siteScan, 50), "ms"},
		"autoscaler.scan_p99_ms":          {ms(siteScan, 99), "ms"},
		"autoscaler.busy_s":               {t.busy(siteScan).Seconds(), "s"},
		"autoscaler.actions":              count(b.scalerActions),
		"autoscaler.ups":                  count(k1.scUps - k0.scUps),
		"autoscaler.downs":                count(k1.scDowns - k0.scDowns),
		"autoscaler.vetoed":               count(k1.scVetoed - k0.scVetoed),
		"capacity.check_p99_us":           {us(siteCheck, 99), "us"},
		"metrics.series":                  count(ph.seriesAtEnd),
		"metrics.dropped":                 {float64(ph.droppedAtEnd), "count"},
		"engine.dup_attempts":             count(k1.violations - k0.violations),
		"simclock.events":                 count(ph.m.events),
		"cluster.untimed_s":               {(ph.m.wall - ph.topSpans).Seconds(), "s"},
		"probe.actuate_samples":           count(len(b.actLat)),
		"probe.failover_samples":          count(len(b.foLat)),
	}
	for _, m := range cpuModules {
		out["cpu."+m+"_s"] = metric{cpu[m], "s"}
	}
	return out
}

// summarize prints what a reader needs to judge the run: the simulated
// span and the sample counts behind each latency percentile.
func summarize(b *bench, ph *phase) {
	fmt.Fprintf(os.Stderr, "%s seed=%d: %.2f sim-h measured in %.2fs wall; %d updates written, %d actuated, %d late; %d hosts killed, %d failover samples; %d task starts, %d refused; attempted=%d failed=%d\n",
		b.f.name, b.seed, ph.span.Hours(), ph.m.wall.Seconds(), b.written, len(b.actLat), b.late,
		ph.kills, len(b.foLat), ph.starts, ph.startErrors, ph.attempted, ph.failed)
}

// writeTrace writes the traced run's spans and its CPU-profile reduction.
func writeTrace(o options, b *bench, cpu map[string]float64) ([]string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	spans := base + "-spans.tsv"
	err := writeFile(spans, func(w *bufio.Writer) {
		t := b.tr
		fmt.Fprintf(w, "# spans of the traced measured phase; %d more not kept\n", t.dropped)
		fmt.Fprintln(w, "id\tsite\tdepth\tparent\tstart_us\tdur_us")
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.3f\t%.3f\n", i, siteNames[s.site], s.depth, s.parent,
				float64(s.start)/1e3, float64(s.dur)/1e3)
		}
	})
	if err != nil {
		return nil, err
	}
	prof := base + "-cpu.tsv"
	err = writeFile(prof, func(w *bufio.Writer) {
		mods := append([]string(nil), cpuModules...)
		sort.Slice(mods, func(i, j int) bool { return cpu[mods[i]] > cpu[mods[j]] })
		fmt.Fprintln(w, "module\tcpu_s")
		for _, m := range mods {
			fmt.Fprintf(w, "%s\t%.3f\n", m, cpu[m])
		}
	})
	if err != nil {
		return nil, err
	}
	return []string{spans, prof}, nil
}

func writeFile(path string, fill func(*bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
