package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Trace schema v2. Every line is one Envelope: a version tag, a
// writer-assigned sequence number (totally ordering the stream even
// when concurrent compilations share one writer), a record type, and
// exactly one payload field matching the type.
//
// Version policy: the major number changes on incompatible layout
// changes and readers MUST reject majors they do not know; the minor
// number changes on additive fields and readers ignore unknown fields.
const (
	SchemaVersion = "2.0"
	schemaMajor   = 2
)

// Record types.
const (
	TypeSpan     = "span"
	TypeDecision = "decision"
	TypeRun      = "run"
)

// Envelope is one trace line.
type Envelope struct {
	// V is the schema version, "major.minor".
	V string `json:"v"`
	// Seq is the writer-assigned global sequence number, starting at 0.
	Seq int64 `json:"seq"`
	// Type selects the payload field: "span", "decision", or "run".
	Type string `json:"type"`

	Span     *Span       `json:"span,omitempty"`
	Decision *Decision   `json:"decision,omitempty"`
	Run      *RunMetrics `json:"run,omitempty"`
}

// TraceWriter emits schema-v2 events as JSON lines. It is safe for
// concurrent use; the sequence number is assigned under the same lock
// as the write, so lines appear in sequence order even when many
// compilations share the writer (the suite Runner's -j N mode).
type TraceWriter struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error
}

// NewTraceWriter wraps w. A nil w yields a nil TraceWriter, which every
// emit site treats as "tracing disabled".
func NewTraceWriter(w io.Writer) *TraceWriter {
	if w == nil {
		return nil
	}
	return &TraceWriter{w: w}
}

// Err returns the first write or encode error encountered. Emission
// never fails an observed compilation; callers that care (the CLIs)
// check Err at the end.
func (t *TraceWriter) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// EmitSpan writes one span record.
func (t *TraceWriter) EmitSpan(s Span) { t.emit(Envelope{Type: TypeSpan, Span: &s}) }

// EmitDecision writes one decision record. Only the copy escapes, so a
// nil writer, which most observers have, costs no allocation.
func (t *TraceWriter) EmitDecision(d Decision) {
	if t == nil {
		return
	}
	rec := d
	t.emit(Envelope{Type: TypeDecision, Decision: &rec})
}

// EmitRun writes one run-metrics record.
func (t *TraceWriter) EmitRun(r RunMetrics) { t.emit(Envelope{Type: TypeRun, Run: &r}) }

func (t *TraceWriter) emit(e Envelope) {
	if t == nil {
		return
	}
	e.V = SchemaVersion
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Seq = t.seq
	line, err := json.Marshal(e)
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.seq++
	line = append(line, '\n')
	if _, err := t.w.Write(line); err != nil && t.err == nil {
		t.err = err
	}
}

// ReadTrace decodes a schema-v2 JSONL stream, rejecting any line whose
// major version differs from the reader's (the compatibility contract:
// minors are additive, majors are breaking). Blank lines are skipped.
func ReadTrace(r io.Reader) ([]Envelope, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Envelope
	n := 0
	for sc.Scan() {
		n++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var e Envelope
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			return nil, fmt.Errorf("obsv: trace line %d: %w", n, err)
		}
		major, err := majorOf(e.V)
		if err != nil {
			return nil, fmt.Errorf("obsv: trace line %d: %w", n, err)
		}
		if major != schemaMajor {
			return nil, fmt.Errorf("obsv: trace line %d: unsupported schema version %q (reader speaks major %d)", n, e.V, schemaMajor)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func majorOf(v string) (int, error) {
	s, _, _ := strings.Cut(v, ".")
	major, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("malformed schema version %q", v)
	}
	return major, nil
}
