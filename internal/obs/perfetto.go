package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rocket/internal/sim"
)

// ExportOptions is WriteTrace's settings; there are none today.
type ExportOptions struct{}

// WriteTrace writes the snapshot as Chrome trace-event JSON, loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing. The writer is
// hand-rolled rather than encoding/json so the byte stream is a pure
// function of the canonical span list: object key order, number
// formatting, and event order are all fixed, which is what lets CI diff
// two exports with cmp(1).
//
// Layout: one process (pid 1); each distinct track becomes a thread
// whose tid is the track's rank in sorted order, named via thread_name
// metadata; spans become "X" (complete) events with microsecond
// timestamps carrying nanosecond precision in the fraction.
func WriteTrace(w io.Writer, snap Snapshot, _ ExportOptions) error {
	bw := bufio.NewWriter(w)
	spans := snap.Spans

	// Assign tids by sorted track name so the numbering is independent
	// of recording order.
	trackSet := map[string]int{}
	for _, s := range spans {
		trackSet[s.Track] = 0
	}
	tracks := make([]string, 0, len(trackSet))
	for t := range trackSet {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	for i, t := range tracks {
		trackSet[t] = i + 1
	}

	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
	}
	for _, t := range tracks {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			trackSet[t], quote(t))
	}
	for _, s := range spans {
		sep()
		bw.WriteString(`{"ph":"X","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(trackSet[s.Track]))
		bw.WriteString(`,"ts":`)
		writeMicros(bw, s.Start)
		bw.WriteString(`,"dur":`)
		writeMicros(bw, s.End-s.Start)
		bw.WriteString(`,"name":`)
		name := s.Name
		if name == "" {
			name = s.Kind.String()
		}
		bw.WriteString(quote(name))
		bw.WriteString(`,"cat":`)
		bw.WriteString(quote(s.Kind.String()))
		bw.WriteString(`,"args":{`)
		argFirst := true
		arg := func(k, v string) {
			if !argFirst {
				bw.WriteByte(',')
			}
			argFirst = false
			bw.WriteString(quote(k))
			bw.WriteByte(':')
			bw.WriteString(v)
		}
		if s.Tenant != "" {
			arg("tenant", quote(s.Tenant))
		}
		if s.Arg != 0 {
			arg("arg", strconv.FormatInt(s.Arg, 10))
		}
		if s.Arg2 != 0 {
			arg("arg2", strconv.FormatInt(s.Arg2, 10))
		}
		bw.WriteString(`}}`)
	}
	// The trailer reports the exported span count and Dropped, which is 0
	// in any trace the layout-invariance guarantee covers (see Snapshot):
	// it only flags recordings where the property is already off.
	fmt.Fprintf(bw, "\n],\"otherData\":{\"spans\":\"%d\",\"dropped\":\"%d\"}}\n",
		len(spans), snap.Dropped)
	return bw.Flush()
}

// writeMicros renders a nanosecond virtual duration as microseconds with
// exactly three fractional digits ("12.500"), preserving full precision
// with a fixed byte representation.
func writeMicros(w *bufio.Writer, t sim.Time) {
	n := int64(t)
	fmt.Fprintf(w, "%d.%03d", n/1000, n%1000)
}

// quote returns the JSON string literal for s (strconv's quoting is
// deterministic and escapes everything JSON needs at ASCII level).
func quote(s string) string { return strconv.Quote(s) }

// WriteTable renders the snapshot as a human-readable span table, at
// most limit rows (0 = all), in canonical order.
func (snap Snapshot) WriteTable(w io.Writer, limit int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %-12s %-10s %-18s %-18s %8s %8s\n",
		"START", "DUR", "KIND", "TRACK", "NAME", "ARG", "ARG2")
	rows := 0
	for _, s := range snap.Spans {
		if limit > 0 && rows >= limit {
			break
		}
		rows++
		name := s.Name
		if s.Tenant != "" {
			name += "(" + s.Tenant + ")"
		}
		fmt.Fprintf(bw, "%-12s %-12s %-10s %-18s %-18s %8d %8d\n",
			s.Start, s.End-s.Start, s.Kind, s.Track, name, s.Arg, s.Arg2)
	}
	fmt.Fprintf(bw, "spans: %d recorded, %d dropped, %d shown\n",
		snap.Recorded, snap.Dropped, rows)
	return bw.Flush()
}

// Timeline renders the snapshot as a per-track textual timeline, the
// Fig. 6 view: tracks in name order, each track's spans in canonical
// order, at most limit rows in all (0 = all). Arg prints as the item a
// span worked on; a non-zero Arg2 is the second item of a pair plus one,
// which is how core records its pipeline phases.
func (snap Snapshot) Timeline(limit int) string {
	byTrack := map[string][]int{}
	for i, s := range snap.Spans {
		byTrack[s.Track] = append(byTrack[s.Track], i)
	}
	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	var b strings.Builder
	rows := 0
	for _, t := range tracks {
		if limit > 0 && rows >= limit {
			break
		}
		fmt.Fprintf(&b, "== %s ==\n", t)
		for _, i := range byTrack[t] {
			if limit > 0 && rows >= limit {
				break
			}
			s := snap.Spans[i]
			fmt.Fprintf(&b, "  %12v .. %-12v %-11s ", s.Start, s.End, s.Name)
			if s.Arg2 != 0 {
				fmt.Fprintf(&b, "pair (%d, %d)\n", s.Arg, s.Arg2-1)
			} else {
				fmt.Fprintf(&b, "item %d\n", s.Arg)
			}
			rows++
		}
	}
	return b.String()
}

// TopEntry aggregates busy virtual time over one grouping key.
type TopEntry struct {
	Key   string
	Busy  sim.Time
	Count int
}

// top aggregates span durations by track ("track") or kind ("kind"),
// sorted by descending busy time then key.
func (snap Snapshot) top(by string) []TopEntry {
	agg := map[string]*TopEntry{}
	for _, s := range snap.Spans {
		key := s.Track
		if by == "kind" {
			key = s.Kind.String()
		}
		e := agg[key]
		if e == nil {
			e = &TopEntry{Key: key}
			agg[key] = e
		}
		e.Busy += s.End - s.Start
		e.Count++
	}
	out := make([]TopEntry, 0, len(agg))
	for _, e := range agg {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// WriteTop renders the snapshot's top(by) as a table.
func (snap Snapshot) WriteTop(w io.Writer, by string, limit int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-24s %14s %8s\n", by, "BUSY", "COUNT")
	for i, e := range snap.top(by) {
		if limit > 0 && i >= limit {
			break
		}
		fmt.Fprintf(bw, "%-24s %14s %8d\n", e.Key, e.Busy, e.Count)
	}
	return bw.Flush()
}
