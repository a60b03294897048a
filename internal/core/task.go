package core

import (
	"fmt"
	"time"

	"daydream/internal/trace"
)

// ThreadKind classifies an execution thread: the paper's three resource
// types (§4.2.1, "ExecutionThread").
type ThreadKind int

// Execution thread kinds.
const (
	// CPUThread is an operating-system thread of the framework process.
	CPUThread ThreadKind = iota
	// GPUStream is a CUDA stream.
	GPUStream
	// CommChannel is a communication channel: a NCCL ring, or a
	// parameter-server send/receive direction.
	CommChannel
)

// String returns the kind name.
func (k ThreadKind) String() string {
	switch k {
	case GPUStream:
		return "stream"
	case CommChannel:
		return "channel"
	}
	return "cpu"
}

// ThreadID identifies one execution thread. It is a comparable value type
// usable as a map key. CPU threads and GPU streams use Num; communication
// channels use Name.
type ThreadID struct {
	Kind ThreadKind
	Num  int
	Name string
}

// String renders the thread compactly, e.g. "cpu:1", "stream:7",
// "channel:nccl".
func (t ThreadID) String() string {
	if t.Kind == CommChannel {
		return fmt.Sprintf("channel:%s", t.Name)
	}
	return fmt.Sprintf("%s:%d", t.Kind, t.Num)
}

// CPU returns the ThreadID of a CPU thread.
func CPU(num int) ThreadID { return ThreadID{Kind: CPUThread, Num: num} }

// Stream returns the ThreadID of a GPU stream.
func Stream(num int) ThreadID { return ThreadID{Kind: GPUStream, Num: num} }

// Channel returns the ThreadID of a communication channel.
func Channel(name string) ThreadID { return ThreadID{Kind: CommChannel, Name: name} }

// DepKind labels a dependency edge with the paper's taxonomy (§4.2.2).
type DepKind int

// Dependency kinds.
const (
	// DepSequence is program order within one CPU thread, one CUDA
	// stream, or one communication channel.
	DepSequence DepKind = iota
	// DepCorrelation links a CUDA runtime API call to the GPU activity
	// it launched (shared CUPTI correlation ID).
	DepCorrelation
	// DepSync is a GPU→CPU edge produced by a CUDA synchronization (or a
	// blocking device-to-host memory copy).
	DepSync
	// DepComm attaches communication tasks: gradient-producing GPU task
	// → communication primitive → weight-update consumer.
	DepComm
	// DepCustom marks edges added by what-if transformations.
	DepCustom
)

// String returns the dependency kind name.
func (k DepKind) String() string {
	switch k {
	case DepCorrelation:
		return "correlation"
	case DepSync:
		return "sync"
	case DepComm:
		return "comm"
	case DepCustom:
		return "custom"
	}
	return "sequence"
}

// Task is one node of the dependency graph: a GPU kernel, a CUDA API call,
// a data-loading task or a communication primitive (§4.2.1).
type Task struct {
	// ID is unique within the graph.
	ID int
	// Name is the kernel or API name.
	Name string
	// Kind is the trace activity kind.
	Kind trace.Kind
	// Thread is the execution thread the task occupies.
	Thread ThreadID
	// Duration is the task's execution time.
	Duration time.Duration
	// Gap is the un-instrumented time between this task's end and the
	// next task on the same CPU thread (§4.2.1, "Gap"); zero for GPU
	// and communication tasks.
	Gap time.Duration
	// TracedStart is the start timestamp observed in the trace; it is
	// not used by the simulator (which derives starts from
	// dependencies) but drives construction and layer mapping.
	TracedStart time.Duration
	// TracedDuration is the duration observed in the trace, before any
	// build-time decomposition (synchronization residuals) or what-if
	// scaling. Used by ablations and diagnostics.
	TracedDuration time.Duration
	// Layer and LayerIndex identify the DNN layer the task maps to;
	// HasLayer reports whether the mapping succeeded.
	Layer      string
	LayerIndex int
	Phase      trace.Phase
	HasLayer   bool
	// Correlation is the CUPTI correlation ID (zero if none).
	Correlation uint64
	// Bytes is the payload for copies and communication.
	Bytes int64
	// Dir is the copy direction, if applicable.
	Dir trace.MemcpyDir
	// Priority orders tasks under priority scheduling (larger is more
	// urgent); used by schedulers such as P3's.
	Priority int
	// Round is the iteration replica index after Graph.Repeat.
	Round int

	// Adjacency is stored on the task itself: children and childKinds
	// are parallel slices, so the graph needs no edge map and Clone can
	// rebuild all adjacency from shared backing arrays. Simulation reads
	// the graph's memoized int32 CSR view instead (see flat.go).
	parents    []*Task
	children   []*Task
	childKinds []DepKind
	seqPrev    *Task
	seqNext    *Task
	peer       *Task // correlation peer (launch↔kernel)
}

// End is a convenience for TracedStart+Duration.
func (t *Task) End() time.Duration { return t.TracedStart + t.Duration }

// Parents returns the task's dependency parents. The slice must not be
// modified.
func (t *Task) Parents() []*Task { return t.parents }

// Children returns the task's dependents. The slice must not be modified.
func (t *Task) Children() []*Task { return t.children }

// SeqPrev returns the previous task on the same execution thread, or nil.
func (t *Task) SeqPrev() *Task { return t.seqPrev }

// SeqNext returns the next task on the same execution thread, or nil.
func (t *Task) SeqNext() *Task { return t.seqNext }

// Peer returns the correlation peer: for a launch/memcpy API task the GPU
// task it triggered, and vice versa. Nil if uncorrelated.
func (t *Task) Peer() *Task { return t.peer }

// OnGPU reports whether the task executes on a GPU stream.
func (t *Task) OnGPU() bool { return t.Thread.Kind == GPUStream }

// OnCPU reports whether the task executes on a CPU thread.
func (t *Task) OnCPU() bool { return t.Thread.Kind == CPUThread }

// String renders a short description for debugging.
func (t *Task) String() string {
	return fmt.Sprintf("#%d %s [%s %v]", t.ID, t.Name, t.Thread, t.Duration)
}
