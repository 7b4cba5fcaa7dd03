package obs

import (
	"hash/fnv"
	"strings"
)

// Statement fingerprinting: reduce a SQL text to a normalized form that is
// stable across the literal values and generated table names it carries, so
// repeated executions of "the same statement" accumulate under one key —
// pg_stat_statements for this engine. Normalization works on the raw text
// (no parse needed, so even syntax errors fingerprint deterministically):
//
//   - numeric literals and quoted string literals become '?'
//   - runs of whitespace collapse to one space
//   - planner-generated temp-table names (pct_<kind>_<digits>, see
//     core.Planner.temp) fold their trailing sequence number to N, so every
//     instance of a generated plan step shares one fingerprint
//   - identifiers and keywords are otherwise preserved byte-for-byte,
//     including digits inside them (trans1 stays trans1)
//
// The hash is FNV-1a 64 over the normalized text. It is a grouping key, not
// a security boundary; collisions merely merge two rows of statistics.

// Fingerprint returns the normalized text of sql and its 64-bit hash.
func Fingerprint(sql string) (string, uint64) {
	norm := normalizeSQL(sql)
	h := fnv.New64a()
	h.Write([]byte(norm))
	return norm, h.Sum64()
}

// normalizeSQL returns the literal-free normalized form of sql (see the
// package comment above for the rules).
func normalizeSQL(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	i := 0
	n := len(sql)
	pendingSpace := false
	emit := func(s string) {
		if pendingSpace && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		pendingSpace = false
		sb.WriteString(s)
	}
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pendingSpace = true
			i++
		case c == '\'':
			// String literal with '' escaping.
			j := i + 1
			for j < n {
				if sql[j] == '\'' {
					if j+1 < n && sql[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			emit("?")
			i = j
		case c >= '0' && c <= '9':
			// Numeric literal: digits, one dot, optional exponent. A digit
			// never starts an identifier here — the identifier branch below
			// consumes trailing digits itself.
			j := i
			for j < n && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			if j < n && (sql[j] == 'e' || sql[j] == 'E') {
				k := j + 1
				if k < n && (sql[k] == '+' || sql[k] == '-') {
					k++
				}
				if k < n && sql[k] >= '0' && sql[k] <= '9' {
					for k < n && sql[k] >= '0' && sql[k] <= '9' {
						k++
					}
					j = k
				}
			}
			emit("?")
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentPart(sql[j]) {
				j++
			}
			emit(foldTempName(sql[i:j]))
			i = j
		default:
			emit(sql[i : i+1])
			i++
		}
	}
	return sb.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// foldTempName maps a planner-generated temp-table name pct_<kind>_<digits>
// to pct_<kind>_N; every other identifier passes through unchanged. The
// shape check is strict — exactly one alphabetic kind segment and a purely
// numeric trailing segment — so user tables like foo_2020 survive.
func foldTempName(id string) string {
	const prefix = "pct_"
	if len(id) <= len(prefix) || !strings.EqualFold(id[:len(prefix)], prefix) {
		return id
	}
	rest := id[len(prefix):]
	us := strings.IndexByte(rest, '_')
	if us <= 0 || us == len(rest)-1 {
		return id
	}
	kind, seq := rest[:us], rest[us+1:]
	for i := 0; i < len(kind); i++ {
		if c := kind[i]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return id
		}
	}
	for i := 0; i < len(seq); i++ {
		if c := seq[i]; c < '0' || c > '9' {
			return id
		}
	}
	return id[:len(prefix)] + kind + "_N"
}
