package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChrome renders the trace in the Chrome trace-event JSON format
// (the "JSON object" flavor: {"traceEvents": [...]}), loadable by
// chrome://tracing and Perfetto. Timestamps and durations are microseconds
// with three decimal places, which represents nanosecond-granular virtual
// time exactly — so the output is bit-identical across same-seed runs.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	sep := func() {
		if first {
			first = false
		} else {
			bw.WriteByte(',')
		}
	}

	// Metadata: process names, then thread names under each process that
	// used them.
	for i, name := range t.pids.names {
		sep()
		bw.WriteString(`{"name":"process_name","ph":"M","pid":`)
		bw.WriteString(strconv.Itoa(i + 1))
		bw.WriteString(`,"tid":0,"args":{"name":`)
		writeJSONString(bw, name)
		bw.WriteString(`}}`)
	}
	for _, p := range t.threads() {
		sep()
		bw.WriteString(`{"name":"thread_name","ph":"M","pid":`)
		bw.WriteString(strconv.Itoa(int(p.pid)))
		bw.WriteString(`,"tid":`)
		bw.WriteString(strconv.Itoa(int(p.tid)))
		bw.WriteString(`,"args":{"name":`)
		writeJSONString(bw, t.tids.name(p.tid))
		bw.WriteString(`}}`)
	}

	for _, e := range t.events {
		sep()
		bw.WriteString(`{"name":`)
		writeJSONString(bw, e.Name)
		bw.WriteString(`,"cat":`)
		writeJSONString(bw, e.Cat)
		bw.WriteString(`,"ph":"`)
		bw.WriteByte(e.Ph)
		bw.WriteString(`","ts":`)
		writeMicros(bw, int64(e.TS))
		if e.Ph == PhaseSpan {
			bw.WriteString(`,"dur":`)
			writeMicros(bw, int64(e.Dur))
		}
		bw.WriteString(`,"pid":`)
		bw.WriteString(strconv.Itoa(int(e.Pid)))
		bw.WriteString(`,"tid":`)
		bw.WriteString(strconv.Itoa(int(e.Tid)))
		if e.Ph == PhaseFlowBegin || e.Ph == PhaseFlowStep || e.Ph == PhaseFlowEnd {
			bw.WriteString(`,"id":"0x`)
			bw.WriteString(strconv.FormatUint(e.ID, 16))
			bw.WriteString(`"`)
		}
		if e.Ph == PhaseInstant {
			bw.WriteString(`,"s":"t"`)
		}
		if e.Arg.Key != "" {
			bw.WriteString(`,"args":{`)
			writeJSONString(bw, e.Arg.Key)
			bw.WriteByte(':')
			if e.Arg.IsNum {
				bw.WriteString(strconv.FormatFloat(e.Arg.Num, 'g', -1, 64))
			} else {
				writeJSONString(bw, e.Arg.Str)
			}
			bw.WriteByte('}')
		} else if e.Ph == PhaseCounter {
			// Counter events carry their value in args; an argless counter
			// would render as an empty track.
			bw.WriteString(`,"args":{}`)
		}
		bw.WriteByte('}')
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteText renders the trace as one line per event, in emission order —
// a compact grep-able form for terminals and diffs.
func (t *Tracer) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.events {
		fmt.Fprintf(bw, "%12.3fus %c %s", float64(e.TS)/1e3, e.Ph, t.pids.name(e.Pid))
		if e.Tid != 0 {
			fmt.Fprintf(bw, "/%s", t.tids.name(e.Tid))
		}
		fmt.Fprintf(bw, " %s", e.Name)
		if e.Ph == PhaseSpan {
			fmt.Fprintf(bw, " dur=%v", e.Dur)
		}
		if e.Ph == PhaseFlowBegin || e.Ph == PhaseFlowStep || e.Ph == PhaseFlowEnd {
			fmt.Fprintf(bw, " id=%d", e.ID)
		}
		if e.Arg.Key != "" {
			if e.Arg.IsNum {
				fmt.Fprintf(bw, " %s=%g", e.Arg.Key, e.Arg.Num)
			} else {
				fmt.Fprintf(bw, " %s=%s", e.Arg.Key, e.Arg.Str)
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// writeMicros renders ns as microseconds with exactly three decimals
// (nanosecond precision, no float rounding: the fraction is computed in
// integer arithmetic).
func writeMicros(w *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		w.WriteByte('-')
		ns = -ns
	}
	w.WriteString(strconv.FormatInt(ns/1000, 10))
	w.WriteByte('.')
	frac := ns % 1000
	w.WriteByte(byte('0' + frac/100))
	w.WriteByte(byte('0' + (frac/10)%10))
	w.WriteByte(byte('0' + frac%10))
}

// writeJSONString emits s as a JSON string literal with minimal escaping.
func writeJSONString(w *bufio.Writer, s string) {
	w.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			w.WriteByte('\\')
			w.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(w, `\u%04x`, c)
		default:
			w.WriteByte(c)
		}
	}
	w.WriteByte('"')
}
