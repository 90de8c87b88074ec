package service

import (
	"strings"
	"unicode"

	"repro/internal/sql"
)

// NormalizeSQL renders statement text as its cache key via sql.Canonical:
// spacing, comment, keyword-case and redundant-quoting variants of one
// statement share a slot (`SELECT  "ws_item_sk"` keys with `select
// ws_item_sk`), while identifier case stays semantic — a SELECT alias
// names the output column with its written spelling, so `AS E` and `AS e`
// must not collide. It is a cache key, not a semantic rewrite: the
// original text is what gets prepared on a miss. Text the lexer rejects
// still needs a deterministic key (its prepare fails, but whether it
// fails must not depend on spacing), so it falls back to collapsing
// whitespace outside quoted regions.
func NormalizeSQL(src string) string {
	if key, err := sql.Canonical(src); err == nil {
		return key
	}
	var b strings.Builder
	b.Grow(len(src))
	var quote rune // 0 outside; '\'' or '"' inside a quoted region
	pendingSpace := false
	for _, r := range src {
		if quote != 0 {
			b.WriteRune(r)
			if r == quote {
				quote = 0
			}
			continue
		}
		switch {
		case unicode.IsSpace(r):
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			if r == '\'' || r == '"' {
				quote = r
			}
			b.WriteRune(r)
		}
	}
	return b.String()
}
