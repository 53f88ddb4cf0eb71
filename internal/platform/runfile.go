// Package platform is the deployment runner for real-socket MTP
// experiments: a declarative runfile describes a series of experiment
// points, and a localhost launcher executes each point by spawning one
// process per node, coordinating them over a small TCP control channel,
// and merging their measurements into benchmark lines.
//
// # Runfile grammar
//
// Every configuration this repository runs — a load point of mtploadgen, an
// experiment of mtpexp, a golden case of internal/exp's TestGolden, a
// shrunken scenario repro — is one row: cells "key = value" whose keys are
// the lower-cased field names of the struct the row configures (a field's
// json name where it has one: Point's rto_ms). A runfile follows the
// two-part shape of onet's simulation files:
//
//	# loopback smoke                  '#' starts a comment
//	concurrency = 16                  globals: the default of every row whose
//	rto_ms = 20                       struct has that key
//	                                  a blank line
//	name, procs, messages, size       a header row naming the columns
//	smoke_1gen_512B, 2, 3000, 512     one row per line; an empty cell
//	smoke_2gen_4KB, 3, 1500,          leaves its key unset
//
// A blank line ends a table and the next line is a new header, so one file
// can hold rows of different shapes. A row's own cell beats a global, and
// among globals the last one wins, which is how a command line overrides
// them (mtpexp -run FILE key=value). On a command line a row is spelt as
// its cells, key=value, one per argument. Values are integers, floats,
// true/false, Go durations (2ms, 384us), plain strings, and lists joined
// with ':' (hosts = 32:64:128).
//
// For mtpexp the exp cell (or, without one, the name cell) names the
// experiment and name labels the row: -only selects by it and TestGolden
// prints it as a "## " heading. Nothing runs until every row has bound: an
// unknown key, a malformed value or a global that no row has a key for is an
// error carrying its line number.
package platform

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Cell is one key with its value, and the runfile line it was written on
// (0 for a command-line cell).
type Cell struct {
	Key, Value string
	Line       int
}

// Row is one configuration: the file's globals, then the row's own cells.
type Row struct {
	Line    int
	Globals []Cell
	Cells   []Cell
}

// Get returns the value Bind would leave under key, "" when no cell sets it.
func (r Row) Get(key string) string {
	for _, cells := range [][]Cell{r.Cells, r.Globals} {
		for i := len(cells) - 1; i >= 0; i-- {
			if cells[i].Key == key {
				return cells[i].Value
			}
		}
	}
	return ""
}

// Err prefixes err with the row's line, when it came from a file.
func (r Row) Err(err error) error { return lineErr(r.Line, err) }

func lineErr(line int, err error) error {
	if line == 0 || err == nil {
		return err
	}
	return fmt.Errorf("runfile line %d: %w", line, err)
}

// ParseRows parses a runfile into its rows, in file order.
func ParseRows(data []byte) ([]Row, error) {
	var globals []Cell
	var header []string
	var rows []Row
	for i, raw := range strings.Split(string(data), "\n") {
		ln := i + 1
		line, _, commented := strings.Cut(raw, "#")
		line = strings.TrimSpace(line)
		switch {
		case line == "" && !commented:
			header = nil // a blank line ends the table
		case line == "": // a comment line: it does not end the table
		case header == nil && strings.Contains(line, "="):
			if rows != nil {
				return nil, lineErr(ln, fmt.Errorf("%q: globals go before the first table", line))
			}
			k, v, _ := strings.Cut(line, "=")
			globals = append(globals, Cell{strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v), ln})
		case header == nil:
			for _, c := range strings.Split(line, ",") {
				header = append(header, strings.ToLower(strings.TrimSpace(c)))
			}
		default:
			cols := strings.Split(line, ",")
			if len(cols) != len(header) {
				return nil, lineErr(ln, fmt.Errorf("%d columns, header has %d", len(cols), len(header)))
			}
			row := Row{Line: ln}
			for j, c := range cols {
				if c = strings.TrimSpace(c); c != "" {
					row.Cells = append(row.Cells, Cell{header[j], c, ln})
				}
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("runfile: no rows (need a header row and at least one data row)")
	}
	for i := range rows {
		rows[i].Globals = globals
	}
	return rows, nil
}

// ParseCells parses command-line cells, each "key=value".
func ParseCells(args []string) ([]Cell, error) {
	cells := make([]Cell, 0, len(args))
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" || strings.HasPrefix(k, "-") {
			return nil, fmt.Errorf("%q: want key=value (flags go before the cells)", a)
		}
		cells = append(cells, Cell{Key: strings.ToLower(k), Value: v})
	}
	return cells, nil
}

// Override returns rows with cells appended to every row's globals, where
// they beat the file's own.
func Override(rows []Row, cells []Cell) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		r.Globals = append(append([]Cell(nil), r.Globals...), cells...)
		out[i] = r
	}
	return out
}

// BindRows is the one binder: it sets the fields of the structs that
// dsts(i, row) points at from each row — globals first, skipping a key none
// of the row's structs has, then the row's own cells, where an unknown key is
// an error — and rejects a global that no row at all could use (a misspelt
// default would otherwise vanish). All rows must share their globals, as
// those of one file do.
func BindRows(rows []Row, dsts func(i int, r Row) ([]any, error)) error {
	used := map[string]bool{}
	for i, r := range rows {
		structs, err := dsts(i, r)
		if err != nil {
			return r.Err(err)
		}
		fields := fieldsOf(structs)
		for _, c := range r.Globals {
			if f, ok := fields[c.Key]; ok {
				used[c.Key] = true
				if err := set(f, c); err != nil {
					return err
				}
			}
		}
		for _, c := range r.Cells {
			f, ok := fields[c.Key]
			if !ok {
				return lineErr(c.Line, fmt.Errorf("unknown key %q (want one of %s)", c.Key, strings.Join(Keys(structs...), ", ")))
			}
			if err := set(f, c); err != nil {
				return err
			}
		}
	}
	if len(rows) > 0 {
		for _, c := range rows[0].Globals {
			if !used[c.Key] {
				return lineErr(c.Line, fmt.Errorf("global %q: no row has that key", c.Key))
			}
		}
	}
	return nil
}

// Bind binds one row (see BindRows).
func Bind(r Row, dsts ...any) error {
	return BindRows([]Row{r}, func(int, Row) ([]any, error) { return dsts, nil })
}

// Keys lists, sorted, the keys a row may set on the structs dsts point at.
func Keys(dsts ...any) []string {
	fields := fieldsOf(dsts)
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fieldsOf maps every key of the structs to its field; the first struct wins
// a key two of them share.
func fieldsOf(structs []any) map[string]reflect.Value {
	fields := map[string]reflect.Value{}
	for j := len(structs) - 1; j >= 0; j-- {
		collect(reflect.ValueOf(structs[j]).Elem(), fields)
	}
	return fields
}

// collect maps each settable field of struct v to its key, flattening
// embedded structs.
func collect(v reflect.Value, into map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		switch {
		case sf.Anonymous && sf.Type.Kind() == reflect.Struct:
			collect(v.Field(i), into)
		case sf.IsExported():
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if key == "" {
				key = strings.ToLower(sf.Name)
			}
			into[key] = v.Field(i)
		}
	}
}

// set parses c's value into field f by f's type.
func set(f reflect.Value, c Cell) error {
	if f.Kind() == reflect.Slice {
		parts := strings.Split(c.Value, ":")
		list := reflect.MakeSlice(f.Type(), len(parts), len(parts))
		for i, p := range parts {
			if err := set(list.Index(i), Cell{c.Key, p, c.Line}); err != nil {
				return err
			}
		}
		f.Set(list)
		return nil
	}
	var err error
	switch {
	case f.Type() == reflect.TypeOf(time.Duration(0)):
		var d time.Duration
		d, err = time.ParseDuration(c.Value)
		f.SetInt(int64(d))
	case f.Kind() == reflect.String:
		f.SetString(c.Value)
	case f.Kind() == reflect.Bool:
		var b bool
		b, err = strconv.ParseBool(c.Value)
		f.SetBool(b)
	case f.CanInt():
		var n int64
		n, err = strconv.ParseInt(c.Value, 10, f.Type().Bits())
		f.SetInt(n)
	case f.CanUint():
		var n uint64
		n, err = strconv.ParseUint(c.Value, 10, f.Type().Bits())
		f.SetUint(n)
	case f.CanFloat():
		var x float64
		x, err = strconv.ParseFloat(c.Value, f.Type().Bits())
		f.SetFloat(x)
	default:
		panic(fmt.Sprintf("platform: cannot bind key %q to a %s field", c.Key, f.Type()))
	}
	if err != nil {
		return lineErr(c.Line, fmt.Errorf("%s: %q is not a valid %s", c.Key, c.Value, f.Type()))
	}
	return nil
}
