package ctrace

// The 2019 v3 cluster trace schema adapter. Google's second trace
// release (May 2019, eight clusters) ships as BigQuery tables; the
// instance_events table is the task_events analogue — one row per
// instance lifecycle transition, exported as newline-delimited JSON with
//
//	bq extract --destination_format NEWLINE_DELIMITED_JSON \
//	    clusterdata_2019_a.instance_events gs://.../instance_events-*.json
//
// A Reader recognizes such an export automatically: a file whose first
// byte is '{' is read as instance_events for its whole length. JSON is
// this format's only spelling, so a JSON line of any other shape fails
// as a row with no collection_id.
//
// Mapping onto the normalized event model:
//
//   - collection_id is the job key, instance_index the task: same-time
//     SUBMIT rows of one collection coalesce into one pod whose
//     containers are the instances in row order, exactly like the 2011
//     CSV's task rows (both feed the shared lifecycle state machine).
//   - type follows the 2019 code set: 0 SUBMIT starts an instance;
//     6 FINISH ends it normally; 4 EVICT, 5 FAIL, 7 KILL and 8 LOST end
//     it abnormally; 1 QUEUE, 2 ENABLE, 3 SCHEDULE, 9 UPDATE_PENDING
//     and 10 UPDATE_RUNNING are scheduling churn, counted as ignored.
//   - resource_request.cpus/.memory are the normalized-to-largest-
//     machine requests, the same [0,1] unit as the 2011 trace.
//   - user partitions the stream, as everywhere else.
//
// BigQuery's JSON export renders INT64 columns as strings ("type":"0")
// while floats stay numbers; both spellings are accepted for every
// numeric field. Unknown columns (priority, machine_id, alloc_* — the
// export carries dozens) are ignored rather than rejected: the schema
// owns the column set, not this reader.

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// i64flex is an INT64 that may arrive as a JSON number or as the
// string BigQuery's JSON export wraps INT64 columns in.
type i64flex int64

func (v *i64flex) UnmarshalJSON(b []byte) error {
	b = unquote(b)
	if len(b) == 0 {
		*v = 0
		return nil
	}
	n, err := strconv.ParseInt(bstr(b), 10, 64)
	if err != nil {
		return err
	}
	*v = i64flex(n)
	return nil
}

// f64flex is a FLOAT64 column with the same string-or-number latitude.
type f64flex float64

func (v *f64flex) UnmarshalJSON(b []byte) error {
	b = unquote(b)
	if len(b) == 0 {
		*v = 0
		return nil
	}
	f, err := strconv.ParseFloat(bstr(b), 64)
	if err != nil {
		return err
	}
	*v = f64flex(f)
	return nil
}

// unquote strips one layer of quotes and maps JSON null to empty.
func unquote(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		b = b[1 : len(b)-1]
	}
	if string(b) == "null" {
		return nil
	}
	return b
}

// instanceRow is the consumed subset of the instance_events columns.
type instanceRow struct {
	Time     i64flex `json:"time"`
	Type     i64flex `json:"type"`
	Coll     i64flex `json:"collection_id"`
	Instance i64flex `json:"instance_index"`
	User     string  `json:"user"`
	Request  struct {
		CPUs   f64flex `json:"cpus"`
		Memory f64flex `json:"memory"`
	} `json:"resource_request"`
}

// consumeInstance translates one instance_events row into the shared
// task-level state machine (apply) behind the same rawRow the CSV
// parser produces.
func (r *Reader) consumeInstance(line []byte) error {
	var row instanceRow
	if err := json.Unmarshal(line, &row); err != nil {
		return badf("instance_events: %v", err)
	}
	if row.Coll <= 0 {
		return badf("instance_events: missing collection_id")
	}
	if row.Instance < 0 {
		return badf("instance_events: negative instance_index %d", int64(row.Instance))
	}
	raw := rawRow{
		us:   int64(row.Time),
		task: int(row.Instance),
		cpu:  float64(row.Request.CPUs),
		mem:  float64(row.Request.Memory),
	}
	switch int64(row.Type) {
	case 0: // SUBMIT
		raw.code = 0
	case 6: // FINISH
		raw.code = 4
	case 4, 5, 7, 8: // EVICT / FAIL / KILL / LOST
		raw.code = 5
	case 1, 2, 3, 9, 10: // QUEUE / ENABLE / SCHEDULE / UPDATE_*: churn
		raw.code = 1
	default:
		return badf("instance_events: type %d outside the 2019 v3 code set 0-10", int64(row.Type))
	}
	// The collection id formats into a reused scratch buffer; apply
	// copies it only when a new job starts.
	r.scratch = strconv.AppendInt(r.scratch[:0], int64(row.Coll), 10)
	raw.job = r.scratch
	raw.user = []byte(row.User)
	return r.apply(raw)
}
