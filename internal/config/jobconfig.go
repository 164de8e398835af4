package config

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Operator names the transformation a job's binary performs. Stateless
// operators keep only input checkpoints; stateful operators additionally
// maintain application state that must be redistributed when parallelism
// changes (paper §V-B, §V-E).
type Operator string

// Built-in operators. Tailer models the Scuba Tailer binary from §VI.
const (
	OpFilter    Operator = "filter"
	OpProject   Operator = "project"
	OpTransform Operator = "transform"
	OpAggregate Operator = "aggregate"
	OpJoin      Operator = "join"
	OpTailer    Operator = "tailer"
)

// Stateful reports whether the operator maintains state beyond checkpoints.
func (o Operator) Stateful() bool { return o == OpAggregate || o == OpJoin }

// MemoryEnforcement selects how per-task memory limits are enforced, which
// determines how OOMs are detected (paper §V-A).
type MemoryEnforcement string

// Enforcement modes.
const (
	EnforceCgroup MemoryEnforcement = "cgroup" // cgroup limit; stats preserved after kill
	EnforceJVM    MemoryEnforcement = "jvm"    // JVM posts OOM metric before killing
	EnforceNone   MemoryEnforcement = "none"   // soft limit compared by the Auto Scaler
)

// Resources is a multi-dimensional resource vector. Turbine's auto scaler
// adjusts allocation in all of these dimensions (paper §I, §V-B).
type Resources struct {
	CPUCores    float64 `json:"cpuCores,omitempty"`
	MemoryBytes int64   `json:"memoryBytes,omitempty"`
	DiskBytes   int64   `json:"diskBytes,omitempty"`
	NetworkBps  int64   `json:"networkBps,omitempty"`
}

// Add returns r + o, dimension-wise.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		CPUCores:    r.CPUCores + o.CPUCores,
		MemoryBytes: r.MemoryBytes + o.MemoryBytes,
		DiskBytes:   r.DiskBytes + o.DiskBytes,
		NetworkBps:  r.NetworkBps + o.NetworkBps,
	}
}

// Sub returns r - o, dimension-wise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{
		CPUCores:    r.CPUCores - o.CPUCores,
		MemoryBytes: r.MemoryBytes - o.MemoryBytes,
		DiskBytes:   r.DiskBytes - o.DiskBytes,
		NetworkBps:  r.NetworkBps - o.NetworkBps,
	}
}

// Scale returns r with every dimension multiplied by f.
func (r Resources) Scale(f float64) Resources {
	return Resources{
		CPUCores:    r.CPUCores * f,
		MemoryBytes: int64(float64(r.MemoryBytes) * f),
		DiskBytes:   int64(float64(r.DiskBytes) * f),
		NetworkBps:  int64(float64(r.NetworkBps) * f),
	}
}

// Fits reports whether r fits within capacity c in every dimension.
func (r Resources) Fits(c Resources) bool {
	return r.CPUCores <= c.CPUCores &&
		r.MemoryBytes <= c.MemoryBytes &&
		r.DiskBytes <= c.DiskBytes &&
		r.NetworkBps <= c.NetworkBps
}

// AnyNegative reports whether any dimension is negative.
func (r Resources) AnyNegative() bool {
	return r.CPUCores < 0 || r.MemoryBytes < 0 || r.DiskBytes < 0 || r.NetworkBps < 0
}

// IsZero reports whether all dimensions are zero.
func (r Resources) IsZero() bool { return r == Resources{} }

// Package identifies the binary a job's tasks run.
type Package struct {
	Name    string `json:"name,omitempty"`
	Version string `json:"version,omitempty"`
}

// Input describes where a job reads from: a Scribe category split into
// partitions that tasks divide among themselves (paper §II).
type Input struct {
	Category   string `json:"category,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
}

// Output describes where a job writes.
type Output struct {
	Category string `json:"category,omitempty"`
}

// JobConfig is the complete typed configuration for one job: everything
// required to start its tasks (paper §III). It corresponds to the merged
// view of all expected-configuration layers.
type JobConfig struct {
	Name           string            `json:"name,omitempty"`
	Package        Package           `json:"package,omitempty"`
	TaskCount      int               `json:"taskCount,omitempty"`
	ThreadsPerTask int               `json:"threadsPerTask,omitempty"`
	TaskResources  Resources         `json:"taskResources,omitempty"`
	Operator       Operator          `json:"operator,omitempty"`
	Input          Input             `json:"input,omitempty"`
	Output         Output            `json:"output,omitempty"`
	CheckpointDir  string            `json:"checkpointDir,omitempty"`
	Enforcement    MemoryEnforcement `json:"enforcement,omitempty"`

	// Priority orders jobs for capacity decisions; higher is more
	// important (paper §V-F).
	Priority int `json:"priority,omitempty"`
	// MaxTaskCount caps horizontal scaling, preventing runaway jobs from
	// grabbing the cluster (32 for unprivileged Scuba tailers, §VI-B1).
	MaxTaskCount int `json:"maxTaskCount,omitempty"`
	// SLOSeconds is the end-to-end lag budget (90 s for many FB apps, §I).
	SLOSeconds float64 `json:"sloSeconds,omitempty"`
	// Stopped marks a job administratively stopped (capacity manager may
	// stop low-priority jobs as a last resort, §V-F).
	Stopped bool `json:"stopped,omitempty"`
}

// Validate checks that a merged configuration is runnable.
func (c *JobConfig) Validate() error {
	var errs []error
	if c.Name == "" {
		errs = append(errs, errors.New("job name is required"))
	}
	if c.Package.Name == "" || c.Package.Version == "" {
		errs = append(errs, errors.New("package name and version are required"))
	}
	if c.TaskCount <= 0 {
		errs = append(errs, fmt.Errorf("taskCount must be positive, got %d", c.TaskCount))
	}
	if c.ThreadsPerTask <= 0 {
		errs = append(errs, fmt.Errorf("threadsPerTask must be positive, got %d", c.ThreadsPerTask))
	}
	if c.Input.Category == "" {
		errs = append(errs, errors.New("input category is required"))
	}
	if c.Input.Partitions <= 0 {
		errs = append(errs, fmt.Errorf("input partitions must be positive, got %d", c.Input.Partitions))
	}
	if c.TaskCount > c.Input.Partitions {
		errs = append(errs, fmt.Errorf("taskCount %d exceeds input partitions %d: a task must own at least one partition", c.TaskCount, c.Input.Partitions))
	}
	if c.MaxTaskCount > 0 && c.TaskCount > c.MaxTaskCount {
		errs = append(errs, fmt.Errorf("taskCount %d exceeds maxTaskCount %d", c.TaskCount, c.MaxTaskCount))
	}
	if c.TaskResources.AnyNegative() {
		errs = append(errs, errors.New("task resources must be non-negative"))
	}
	return errors.Join(errs...)
}

// ToDoc serializes c into a layering Doc via its JSON form.
func (c *JobConfig) ToDoc() (Doc, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("marshal job config: %w", err)
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("unmarshal job config doc: %w", err)
	}
	return d, nil
}

// JobConfigFromDoc decodes a merged Doc into the typed JobConfig. The
// result, and any error, is exactly what a JSON round trip of d gives: the
// doc is walked directly (jobconfig_decode.go) and handed unchanged to that
// round trip only when the walk meets a value it cannot decode exactly.
func JobConfigFromDoc(d Doc) (*JobConfig, error) {
	c := new(JobConfig)
	if decodeJobConfig(c, d) {
		return c, nil
	}
	return jobConfigFromJSON(d)
}

// jobConfigFromJSON decodes d by marshalling it to JSON and unmarshalling
// that into a JobConfig: JobConfigFromDoc's fallback and its reference.
func jobConfigFromJSON(d Doc) (*JobConfig, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("marshal doc: %w", err)
	}
	var c JobConfig
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("decode job config: %w", err)
	}
	return &c, nil
}
