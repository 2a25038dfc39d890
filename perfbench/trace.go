package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the driver into a layer: the rung it
// entered, the call, its start and end in nanoseconds since the run's
// epoch, and the request (one op of the stream) that caused it. All spans
// are top-level driver calls, so none has a parent span.
type span struct {
	req        int64
	rung, call uint8
	start, end int64
}

// Call kinds of a span.
const (
	callAcquire uint8 = iota
	callAcquireN
	callRelease
	callReleaseAll
	callHeartbeat
	callSweep
	callScrub
	callBuild
	callRun
)

var callNames = [...]string{"acquire", "acquireN", "release", "releaseAll", "heartbeat", "sweep", "scrub", "build", "run"}

// spanLog keeps one worker's spans in memory, up to a fixed capacity; the
// traced run writes them out when the benchmark ends. A nil log records
// nothing, which is how untraced loops run.
type spanLog struct {
	epoch   time.Time
	rung    uint8
	spans   []span
	dropped int64
}

const spansPerLog = 1 << 15

func newSpanLog(epoch time.Time, rung uint8) *spanLog {
	return &spanLog{epoch: epoch, rung: rung, spans: make([]span, 0, spansPerLog)}
}

func (l *spanLog) record(req int64, call uint8, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{req: req, rung: l.rung, call: call,
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch))})
}

// writeSpans writes every kept span as CSV (rung, call, request, start ns,
// end ns) to dir/name, creating dir.
func writeSpans(dir, name string, rungNames []string, logs []*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rung,call,request,start_ns,end_ns")
	for _, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", rungNames[s.rung], callNames[s.call], s.req, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
