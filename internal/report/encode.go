package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Format names accepted by Encode.
const (
	FormatText     = "text"
	FormatJSON     = "json"
	FormatMarkdown = "md"
	FormatCSV      = "csv"
)

// Formats lists the encoder names in listing order.
func Formats() []string {
	return []string{FormatText, FormatJSON, FormatMarkdown, FormatCSV}
}

// ContentType returns the HTTP content type for a format.
func ContentType(format string) string {
	switch format {
	case FormatJSON:
		return "application/json"
	case FormatMarkdown:
		return "text/markdown; charset=utf-8"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// ValidFormat reports whether format names a known encoder — the one
// membership check the CLI, the registry and the HTTP server all share.
func ValidFormat(format string) error {
	for _, f := range Formats() {
		if f == format {
			return nil
		}
	}
	return fmt.Errorf("report: unknown format %q (have: %s)", format, strings.Join(Formats(), ", "))
}

// Encode renders the document in the named format.
func Encode(w io.Writer, d *Document, format string) error {
	switch format {
	case FormatText:
		return EncodeText(w, d)
	case FormatJSON:
		return EncodeJSON(w, d)
	case FormatMarkdown:
		return EncodeMarkdown(w, d)
	case FormatCSV:
		return EncodeCSV(w, d)
	default:
		return ValidFormat(format)
	}
}

// EncodeText renders the document exactly as the pre-model pipeline
// printed it: every node carries the printf format it was historically
// rendered with, so this encoding is byte-identical to the study's
// fmt.Fprintf output (the golden-file and determinism tests pin it).
func EncodeText(w io.Writer, d *Document) error {
	bw := newErrWriter(w)
	for _, s := range d.Sections {
		if s.Title != "" {
			bw.printf("== %s ==\n", s.Title)
		}
		for _, n := range s.Nodes {
			encodeTextNode(bw, n)
		}
		bw.writeString("\n")
	}
	return bw.err
}

func encodeTextNode(bw *errWriter, n Node) {
	switch {
	case n.KV != nil:
		bw.printf(n.KV.Format+"\n", fieldArgs(n.KV.Fields)...)
	case n.Text != nil:
		for _, line := range n.Text.Lines {
			bw.writeString(line + "\n")
		}
	case n.Table != nil:
		for _, row := range n.Table.Rows {
			bw.printf(n.Table.RowFormat+"\n", valueArgs(row)...)
		}
	case n.Figure != nil:
		for _, p := range n.Figure.Points {
			args := append([]any{p.Label}, valueArgs(p.Values)...)
			bw.printf(n.Figure.RowFormat+"\n", args...)
		}
	}
}

func fieldArgs(fields []Field) []any {
	out := make([]any, len(fields))
	for i, f := range fields {
		out[i] = f.Value.arg()
	}
	return out
}

func valueArgs(vals []Value) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v.arg()
	}
	return out
}

// EncodeJSON renders the document as indented JSON (for humans and
// HTTP consumers). The canonical compact form used for hashing and
// storage is CanonicalJSON.
func EncodeJSON(w io.Writer, d *Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeJSON parses a document from either the indented or the
// canonical encoding. It rejects documents that break the model's
// invariants (a null section, a node with no kind or several), so
// every document it returns encodes in every format.
func DecodeJSON(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	return &d, nil
}

// CanonicalJSON returns the compact deterministic encoding used to
// content-address documents: same document, same bytes. The model has
// no maps, so encoding/json's field order is fixed by declaration.
func CanonicalJSON(d *Document) ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("report: canonical encode: %w", err)
	}
	return b, nil
}

// EncodeMarkdown renders sections as ## headings, KV and text lines as
// prose, and tables/figures as Markdown tables.
func EncodeMarkdown(w io.Writer, d *Document) error {
	bw := newErrWriter(w)
	if d.Title != "" {
		bw.printf("# %s\n\n", d.Title)
	}
	for _, s := range d.Sections {
		if s.Title != "" {
			bw.printf("## %s\n\n", s.Title)
		}
		// Consecutive prose lines form one paragraph: hard breaks
		// (backslash-newline) join lines *within* it, never trail its
		// last line — CommonMark renders a trailing backslash before a
		// blank line as a literal backslash.
		var prose []string
		flush := func() {
			if len(prose) == 0 {
				return
			}
			bw.writeString(strings.Join(prose, "\\\n") + "\n\n")
			prose = nil
		}
		for _, n := range s.Nodes {
			switch {
			case n.KV != nil:
				prose = append(prose, strings.TrimLeft(fmt.Sprintf(n.KV.Format, fieldArgs(n.KV.Fields)...), " "))
			case n.Text != nil:
				prose = append(prose, n.Text.Lines...)
			default:
				flush()
				encodeMarkdownNode(bw, n)
			}
		}
		flush()
	}
	return bw.err
}

func encodeMarkdownNode(bw *errWriter, n Node) {
	switch {
	case n.Table != nil:
		width := len(n.Table.Columns)
		if width == 0 && len(n.Table.Rows) > 0 {
			width = len(n.Table.Rows[0])
		}
		markdownTable(bw, n.Table.Columns, width, func(emit func([]string)) {
			for _, row := range n.Table.Rows {
				emit(displayCells(row))
			}
		})
	case n.Figure != nil:
		width := 1
		if len(n.Figure.Points) > 0 {
			width += len(n.Figure.Points[0].Values)
		}
		cols := n.Figure.Columns
		if len(cols) == 0 {
			cols = defaultColumns(width)
		}
		markdownTable(bw, cols, width, func(emit func([]string)) {
			for _, p := range n.Figure.Points {
				// The label cell always renders, even empty — dropping
				// it would shift the point's values one column left.
				emit(append([]string{p.Label}, displayCells(p.Values)...))
			}
		})
	}
}

func defaultColumns(width int) []string {
	if width <= 0 {
		return nil
	}
	cols := make([]string, width)
	cols[0] = "label"
	for i := 1; i < width; i++ {
		cols[i] = fmt.Sprintf("v%d", i)
	}
	return cols
}

func displayCells(vals []Value) []string {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = v.Display()
	}
	return cells
}

func markdownTable(bw *errWriter, cols []string, width int, rows func(emit func([]string))) {
	if width == 0 {
		width = len(cols)
	}
	if len(cols) == 0 {
		cols = defaultColumns(width)
	}
	if len(cols) == 0 {
		// A table with neither columns nor rows has nothing to render
		// (and must not panic on decoded documents that omit both).
		return
	}
	bw.writeString("| " + strings.Join(cols, " | ") + " |\n")
	bw.writeString("|" + strings.Repeat(" --- |", len(cols)) + "\n")
	rows(func(cells []string) {
		for len(cells) < len(cols) {
			cells = append(cells, "")
		}
		bw.writeString("| " + strings.Join(cells, " | ") + " |\n")
	})
	bw.writeString("\n")
}

// EncodeCSV flattens every table and figure row (and KV field) into
// one long-format CSV: section,node,row,label,column,value.
func EncodeCSV(w io.Writer, d *Document) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"section", "node", "row", "label", "column", "value"}); err != nil {
		return err
	}
	for _, s := range d.Sections {
		for ni, n := range s.Nodes {
			if err := encodeCSVNode(cw, s.ID, ni, n); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func encodeCSVNode(cw *csv.Writer, section string, ni int, n Node) error {
	node := fmt.Sprintf("%d", ni)
	switch {
	case n.KV != nil:
		for _, f := range n.KV.Fields {
			if err := cw.Write([]string{section, "kv" + node, "0", "", f.Name, f.Value.Display()}); err != nil {
				return err
			}
		}
	case n.Text != nil:
		for i, line := range n.Text.Lines {
			if err := cw.Write([]string{section, "text" + node, fmt.Sprintf("%d", i), "", "text", line}); err != nil {
				return err
			}
		}
	case n.Table != nil:
		id := n.Table.ID
		if id == "" {
			id = "table" + node
		}
		for ri, row := range n.Table.Rows {
			for ci, v := range row {
				col := fmt.Sprintf("c%d", ci)
				if ci < len(n.Table.Columns) {
					col = n.Table.Columns[ci]
				}
				if err := cw.Write([]string{section, id, fmt.Sprintf("%d", ri), "", col, v.Display()}); err != nil {
					return err
				}
			}
		}
	case n.Figure != nil:
		id := n.Figure.ID
		if id == "" {
			id = "figure" + node
		}
		for ri, p := range n.Figure.Points {
			for ci, v := range p.Values {
				col := fmt.Sprintf("v%d", ci+1)
				if ci+1 < len(n.Figure.Columns) {
					col = n.Figure.Columns[ci+1]
				}
				if err := cw.Write([]string{section, id, fmt.Sprintf("%d", ri), p.Label, col, v.Display()}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// errWriter latches the first write error so encoders can stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) writeString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
