package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// spanKind is one kind of span the benchmark records around a call it
// makes into a layer. Spans are taken from outside the program: a span
// covers everything its call does, including the layers below it.
type spanKind uint8

const (
	spRequest    spanKind = iota // one whole request, parent of all others
	spGradesheet                 // one gradesheet.Server call: app code and its rt regions
	spOpen
	spRead
	spWrite
	spClose
	spCreate // an open with OCreate
	spUnlink
	spSetTaskLabel
	spSend
	spRecv
	spTickSrc // cluster.Tick on the route's source, relay and destination nodes
	spTickRelay
	spTickDst
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"request", "gradesheet.call",
	"kernel.open", "kernel.read", "kernel.write", "kernel.close", "kernel.create",
	"kernel.unlink", "kernel.set_task_label", "kernel.send", "kernel.recv",
	"cluster.tick.src", "cluster.tick.relay", "cluster.tick.dst",
}

var kernelCalls = []spanKind{spOpen, spRead, spWrite, spClose, spCreate, spUnlink, spSetTaskLabel, spSend, spRecv}

// layers are the layers self time is reported for. "residual" is request
// time no layer span covers: the benchmark's own work, such as checking
// answers against the model.
var layers = []string{"residual", "gradesheet", "kernel", "cluster"}

func (k spanKind) layer() string {
	if k == spRequest {
		return "residual"
	}
	l, _, _ := strings.Cut(spanNames[k], ".")
	return l
}

const (
	maxSpans   = 1 << 16 // spans kept for the span file; later ones are only summed
	maxSamples = 1 << 20 // durations kept per kind for medians
)

type span struct {
	req   uint32
	kind  spanKind
	start int64 // ns since the tracer's epoch
	dur   int64
}

// tracer keeps spans in memory while on; off, begin and end cost a branch.
type tracer struct {
	on    bool
	epoch time.Time
	req   uint32 // id of the request being traced
	spans []span
	ns    [nSpanKinds]int64  // summed durations per kind
	n     [nSpanKinds]uint64 // spans per kind
	durs  [nSpanKinds][]int64
	// Cluster ticks, and the time requests spent in tick rounds that moved
	// nothing: waiting for the network.
	ticks, idleTicks uint64
	waitNs           int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// untraced is a tracer that is never switched on.
var untraced = newTracer()

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return t.now()
}

func (t *tracer) end(k spanKind, start int64) {
	if t.on {
		t.record(k, start, t.now()-start)
	}
}

func (t *tracer) record(k spanKind, start, dur int64) {
	t.ns[k] += dur
	t.n[k]++
	if k != spRequest && len(t.durs[k]) < maxSamples {
		t.durs[k] = append(t.durs[k], dur)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{t.req, k, start, dur})
	}
}

// request closes the span of one whole request and moves to the next id.
func (t *tracer) request(t0, t1 int64) {
	if t.on {
		t.record(spRequest, t0, t1-t0)
		t.req++
	}
}

// tick counts one cluster tick that moved the given amount of work.
func (t *tracer) tick(moved int) {
	if t.on {
		t.ticks++
		if moved == 0 {
			t.idleTicks++
		}
	}
}

// wait adds the time since start to the time spent waiting on the network.
func (t *tracer) wait(start int64) {
	if t.on {
		t.waitNs += t.now() - start
	}
}

// selfTimes returns each layer's self time: its spans' time minus the
// part their children cover. Layer spans are children of the request span
// and never nest, so the request's self time is the residual.
func (t *tracer) selfTimes() map[string]int64 {
	self := map[string]int64{"residual": t.ns[spRequest]}
	for k := spRequest + 1; k < nSpanKinds; k++ {
		self[k.layer()] += t.ns[k]
		self["residual"] -= t.ns[k]
	}
	return self
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		parent := "request"
		if s.kind == spRequest {
			parent = ""
		}
		fmt.Fprintf(bw, "{\"req\":%d,\"name\":%q,\"layer\":%q,\"parent\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n",
			s.req, spanNames[s.kind], s.kind.layer(), parent, s.start, s.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
