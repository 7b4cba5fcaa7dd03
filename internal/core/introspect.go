package core

import (
	"sort"

	"repro/internal/storage"
	"repro/internal/value"
)

// pct_cache_entries exposes the planner's summary cache through the
// introspection catalog: one row per cached summary with its lifecycle
// state, so "why did this query miss the cache" is answerable with a SELECT
// instead of a debugger. Registered alongside the engine-owned pct_stat_*
// tables (the engine cannot build this one itself — the cache lives here).

var cacheEntriesSchema = storage.Schema{
	{Name: "cache_key", Type: storage.TypeString},
	{Name: "table_name", Type: storage.TypeString},
	{Name: "base_table", Type: storage.TypeString},
	{Name: "state", Type: storage.TypeString},
	{Name: "epoch", Type: storage.TypeInt},
	{Name: "base_rows", Type: storage.TypeInt},
	{Name: "pending_rows", Type: storage.TypeInt},
	{Name: "deltable", Type: storage.TypeInt},
}

// RegisterCacheIntrospection registers the pct_cache_entries virtual
// relation over this planner's summary cache.
func (p *Planner) RegisterCacheIntrospection() error {
	return p.Eng.RegisterVirtual("pct_cache_entries", cacheEntriesSchema, p.buildCacheEntries)
}

// UnregisterCacheIntrospection removes the relation.
func (p *Planner) UnregisterCacheIntrospection() {
	p.Eng.UnregisterVirtual("pct_cache_entries")
}

// cacheEntryState classifies an entry for display. Mirrors the lookup
// decision in cacheLookup: building → not yet usable, invalid → will be
// discarded, pending → next hit takes the delta path, clean → hit as is.
func cacheEntryState(e *summaryEntry) string {
	switch {
	case !e.built:
		return "building"
	case e.invalid:
		return "invalid"
	case e.pending():
		return "pending"
	default:
		return "clean"
	}
}

func (p *Planner) buildCacheEntries() (*storage.Table, error) {
	t, err := storage.NewTable("pct_cache_entries", cacheEntriesSchema)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	entries := make([]*summaryEntry, 0, len(p.summaries))
	for _, e := range p.summaries {
		entries = append(entries, e)
	}
	// Rows are rendered under the planner lock: entry fields are mu-guarded
	// and the snapshot must be coherent per entry.
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		deltable := int64(0)
		if e.delta.rollup != "" {
			deltable = 1
		}
		if _, err := t.AppendRow([]value.Value{
			value.NewString(e.key),
			value.NewString(e.table),
			value.NewString(e.baseTable),
			value.NewString(cacheEntryState(e)),
			value.NewInt(e.epoch),
			value.NewInt(int64(e.baseRows)),
			value.NewInt(int64(e.pendTo - e.pendFrom + len(e.signed))),
			value.NewInt(deltable),
		}); err != nil {
			p.mu.Unlock()
			return nil, err
		}
	}
	p.mu.Unlock()
	return t, nil
}
