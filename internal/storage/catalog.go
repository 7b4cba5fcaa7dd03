package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Catalog is the set of named tables visible to the engine: base tables,
// temporary tables created by the percentage-query rewriter (Fk, Fj, FV,
// FH, …) and result tables. Access is guarded so that concurrent benchmark
// runs over disjoint tables are safe.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create creates a new table. It fails if a table with the same
// (case-insensitive) name exists.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	c.tables[key] = t
	return t, nil
}

// Put registers an existing table, replacing any table of the same name.
// It is used by operators that build a result table and publish it.
func (c *Catalog) Put(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Name())] = t
}

// Get returns the named table, or an error naming the missing table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no table %q", name)
	}
	return t, nil
}

// Has reports whether the named table exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Drop removes the named table. Dropping a missing table is an error, as in
// SQL without IF EXISTS.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("storage: no table %q to drop", name)
	}
	delete(c.tables, key)
	return nil
}

// DropIfExists removes the named table if present and reports whether it was.
func (c *Catalog) DropIfExists(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	_, ok := c.tables[key]
	delete(c.tables, key)
	return ok
}

// Names returns the table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}
