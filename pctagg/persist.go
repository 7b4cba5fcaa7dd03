package pctagg

import (
	"encoding/gob"
	"fmt"
	"io"
	"strings"

	"repro/internal/storage"
)

// Snapshot persistence: Save serializes every table (schema, rows, primary
// key, secondary indexes) with encoding/gob; Load restores them into an
// empty or existing database. The format is columnar: one typed vector and
// its NULL flags per column, copied from and appended as a storage.Vector.

// snapColumn is the gob form of one column.
type snapColumn struct {
	Name  string
	Type  uint8
	Ints  []int64
	Flts  []float64
	Strs  []string
	Bools []bool
	Nulls []bool
}

// snapIndex is the gob form of one secondary index definition.
type snapIndex struct {
	Name    string
	Columns []string
}

// snapTable is the gob form of one table.
type snapTable struct {
	Name       string
	NumRows    int
	Columns    []snapColumn
	PrimaryKey []string
	Indexes    []snapIndex
}

// snapshot is the gob header and payload.
type snapshot struct {
	Magic   string
	Version int
	Tables  []snapTable
}

const snapMagic = "pctagg-snapshot"

// Save writes every table in the database to w. The planner's shared
// summaries are not included (they are transient by design).
func (db *DB) Save(w io.Writer) error {
	snap := snapshot{Magic: snapMagic, Version: 1}
	for _, name := range db.Tables() {
		t, err := db.eng.Catalog().Get(name)
		if err != nil {
			return err
		}
		st := snapTable{Name: t.Name(), NumRows: t.NumRows()}
		for _, pos := range t.PrimaryKey() {
			st.PrimaryKey = append(st.PrimaryKey, t.Schema()[pos].Name)
		}
		for _, ix := range t.Indexes() {
			if len(st.PrimaryKey) > 0 && ix.Name() == "pk_"+t.Name() {
				continue // recreated by SetPrimaryKey on load
			}
			st.Indexes = append(st.Indexes, snapIndex{Name: ix.Name(), Columns: ix.Columns()})
		}
		for ci, def := range t.Schema() {
			c := t.Column(ci)
			col := snapColumn{Name: def.Name, Type: uint8(def.Type), Ints: c.Ints, Flts: c.Flts, Bools: c.Bools, Nulls: make([]bool, t.NumRows())}
			if def.Type == storage.TypeString {
				col.Strs = make([]string, t.NumRows()) // "" under a NULL
			}
			for r := range col.Nulls {
				if col.Nulls[r] = c.Nulls.Get(r); !col.Nulls[r] && col.Strs != nil {
					col.Strs[r] = c.Value(r).Str()
				}
			}
			st.Columns = append(st.Columns, col)
		}
		snap.Tables = append(snap.Tables, st)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load restores tables saved by Save. A snapshot is outside input: every
// table is built and checked — known column types, as many cells and NULL
// flags in each column as the table has rows, its name new to the snapshot
// and to the database, its keys on columns it has — before any is added, so
// a Load that fails leaves the database as it found it. Load into a fresh
// DB to restore a snapshot wholesale.
func (db *DB) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("pctagg: reading snapshot: %w", err)
	}
	if snap.Magic != snapMagic {
		return fmt.Errorf("pctagg: not a pctagg snapshot")
	}
	if snap.Version != 1 {
		return fmt.Errorf("pctagg: unsupported snapshot version %d", snap.Version)
	}
	cat := db.eng.Catalog()
	tables := make([]*storage.Table, len(snap.Tables))
	seen := make(map[string]bool, len(snap.Tables))
	for i, st := range snap.Tables {
		key := strings.ToLower(st.Name)
		if seen[key] || cat.Has(st.Name) {
			return fmt.Errorf("pctagg: snapshot table %q already exists", st.Name)
		}
		seen[key] = true
		t, err := st.table()
		if err != nil {
			return fmt.Errorf("pctagg: snapshot table %q: %w", st.Name, err)
		}
		tables[i] = t
	}
	for _, t := range tables {
		cat.Put(t)
	}
	return nil
}

// table builds the snapshot table outside any catalog, one vector per column
// appended in one batch.
func (st *snapTable) table() (*storage.Table, error) {
	schema := make(storage.Schema, len(st.Columns))
	vecs := make([]*storage.Vector, len(st.Columns))
	for i, c := range st.Columns {
		v := &storage.Vector{Type: storage.ColumnType(c.Type), Ints: c.Ints, Flts: c.Flts, Bools: c.Bools}
		if v.Type == storage.TypeString {
			v = storage.Strings(c.Strs)
		}
		if v.Len() != st.NumRows || len(c.Nulls) != st.NumRows {
			return nil, fmt.Errorf("column %q has %d cells and %d NULL flags for %d rows", c.Name, v.Len(), len(c.Nulls), st.NumRows)
		}
		for r, null := range c.Nulls {
			if null {
				v.SetNull(r)
			}
		}
		schema[i], vecs[i] = storage.ColumnDef{Name: c.Name, Type: v.Type}, v
	}
	t, err := storage.NewTable(st.Name, schema)
	if err != nil {
		return nil, err
	}
	if err := t.AppendVectors(vecs, st.NumRows, nil); err != nil {
		return nil, err
	}
	if len(st.PrimaryKey) > 0 {
		if err := t.SetPrimaryKey(st.PrimaryKey); err != nil {
			return nil, err
		}
	}
	for _, ix := range st.Indexes {
		if _, err := t.CreateIndex(ix.Name, ix.Columns); err != nil {
			return nil, err
		}
	}
	return t, nil
}
