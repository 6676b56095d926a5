package artifact

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
)

// Format selects an artifact encoding. The set is closed: Formats
// lists it, and TestFormatDispatch (here and in cmd/tdcache-experiments)
// drives every member through each switch over Format, so adding a
// fourth format surfaces every dispatch site.
type Format string

// The supported output formats.
const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// Formats lists the supported output formats.
func Formats() []Format {
	return []Format{FormatText, FormatJSON, FormatCSV}
}

// ParseFormat validates a user-supplied format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	}
	return "", errorf("unknown format %q (want text, json, or csv)", s)
}

// ContentType returns the HTTP media type of the format.
func (f Format) ContentType() string {
	switch f {
	case FormatJSON:
		return "application/json"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	// FormatText is plain text, and so is the safest rendering of any foreign value.
	default:
		return "text/plain; charset=utf-8"
	}
}

// Ext returns the store file extension of the format.
func (f Format) Ext() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	// FormatText stores as .txt; foreign values never reach the store (ParseFormat gates them).
	default:
		return "txt"
	}
}

// Encode writes a in the given format.
func Encode(w io.Writer, f Format, a Artifact) error {
	switch f {
	case FormatJSON:
		return EncodeJSON(w, a)
	case FormatCSV:
		return EncodeCSV(w, a)
	case FormatText:
		return EncodeText(w, a)
	}
	return errorf("unknown format %q", f)
}

// EncodeText writes the paper-shaped text form. Artifacts that carry a
// legacy renderer (every live experiment result does) use it verbatim —
// this is the byte-identity guarantee for `-format text`; artifacts
// that are bare Tables (e.g. decoded from a store) get a generic
// aligned-grid rendering.
func EncodeText(w io.Writer, a Artifact) error {
	if r, ok := a.(TextRenderer); ok {
		r.RenderText(w)
		return nil
	}
	return genericText(w, a.ArtifactTable())
}

// genericText renders a Table without a legacy renderer: title line,
// tab-aligned column grid, metric lines, then sorted attributes.
func genericText(w io.Writer, t *Table) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if len(t.Columns) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for ci, c := range t.Columns {
			if ci > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, columnHeader(c))
		}
		fmt.Fprintln(tw)
		for i := 0; i < t.RowCount(); i++ {
			for ci := range t.Columns {
				if ci > 0 {
					fmt.Fprint(tw, "\t")
				}
				fmt.Fprint(tw, t.Columns[ci].Cell(i))
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for _, m := range t.Metrics {
		if _, err := fmt.Fprintf(w, "%s = %s\n", columnHeaderName(m.Name, m.Unit), formatFloat(m.Value)); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(t.Attrs) {
		if _, err := fmt.Fprintf(w, "%s: %s\n", k, t.Attrs[k]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes the canonical JSON form: encoding/json with sorted
// map keys (its default) and a trailing newline. The artifact digest is
// defined over exactly these bytes, so this function must stay
// deterministic.
func EncodeJSON(w io.Writer, a Artifact) error {
	t := a.ArtifactTable()
	b, err := marshalTable(t)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return errorf("encode json %s: %w", t.ID, err)
	}
	return nil
}

// marshalTable produces the canonical JSON bytes of a table
// (newline-terminated).
func marshalTable(t *Table) ([]byte, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return nil, errorf("encode json %s: %v", t.ID, err)
	}
	return append(b, '\n'), nil
}

// DecodeJSON reads one canonical-JSON table.
func DecodeJSON(r io.Reader) (*Table, error) {
	var t Table
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, errorf("decode json: %v", err)
	}
	return &t, nil
}

// EncodeCSV writes the row data as RFC-4180 CSV: a header of
// "name [unit]" labels, one record per row, and — when the artifact has
// headline metrics or attributes — a second "metric,unit,value" block
// separated by a blank record so the file stays trivially splittable.
func EncodeCSV(w io.Writer, a Artifact) error {
	t := a.ArtifactTable()
	cw := csv.NewWriter(w)
	wroteRows := false
	if len(t.Columns) > 0 {
		header := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			header[i] = columnHeader(c)
		}
		if err := cw.Write(header); err != nil {
			return errorf("encode csv %s: %v", t.ID, err)
		}
		rec := make([]string, len(t.Columns))
		for i := 0; i < t.RowCount(); i++ {
			for ci := range t.Columns {
				rec[ci] = t.Columns[ci].Cell(i)
			}
			if err := cw.Write(rec); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
		wroteRows = true
	}
	if len(t.Metrics) > 0 || len(t.Attrs) > 0 {
		cw.Flush()
		if wroteRows {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return errorf("encode csv %s: %w", t.ID, err)
			}
		}
		if err := cw.Write([]string{"metric", "unit", "value"}); err != nil {
			return errorf("encode csv %s: %v", t.ID, err)
		}
		for _, m := range t.Metrics {
			if err := cw.Write([]string{m.Name, m.Unit, formatFloat(m.Value)}); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
		for _, k := range sortedKeys(t.Attrs) {
			if err := cw.Write([]string{k, UnitNone, t.Attrs[k]}); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return errorf("encode csv %s: %w", t.ID, err)
	}
	return nil
}

// columnHeader renders a column label with its unit suffix.
func columnHeader(c Column) string { return columnHeaderName(c.Name, c.Unit) }

func columnHeaderName(name, unit string) string {
	if unit == UnitNone {
		return name
	}
	return name + " [" + unit + "]"
}

// formatInt renders an integer cell.
func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float cell with the shortest representation
// that round-trips, so encodings are deterministic and lossless.
//
//unit:param v dimensionless
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns m's keys in sorted order (deterministic encoding
// of attribute maps).
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
