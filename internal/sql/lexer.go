// Package sql parses and executes window-function SQL: SELECT lists mixing
// plain columns and OVER(...) window calls, WHERE filters, and a final
// ORDER BY — the "basic window query block" of the paper's Section 1. The
// runner binds against a catalog, plans the window functions with a chosen
// optimization scheme, executes the chain, and applies projection and final
// ordering.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written
	pos  int
}

// keywords recognized by the parser. Identifiers matching these (case-
// insensitively) lex as keywords.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "AS": true,
	"OVER": true, "PARTITION": true, "BY": true, "ORDER": true,
	"ASC": true, "DESC": true, "NULLS": true, "FIRST": true, "LAST": true,
	"ROWS": true, "RANGE": true, "BETWEEN": true, "AND": true, "OR": true,
	"NOT": true, "UNBOUNDED": true, "PRECEDING": true, "FOLLOWING": true,
	"CURRENT": true, "ROW": true, "NULL": true, "IS": true, "LIMIT": true,
	"TRUE": true, "FALSE": true,
	"INSERT": true, "INTO": true, "VALUES": true, "SUBSCRIBE": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) error(pos int, format string, args ...interface{}) error {
	return fmt.Errorf("sql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// lex tokenizes the whole input.
func (l *lexer) lex() ([]token, error) {
	var out []token
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			out = append(out, token{kind: tokEOF, pos: l.pos})
			return out, nil
		}
		start := l.pos
		c := l.src[l.pos]
		r, w := l.peekRune()
		switch {
		case isIdentStart(r):
			for l.pos += w; l.pos < len(l.src); l.pos += w {
				if r, w = l.peekRune(); !isIdentPart(r) {
					break
				}
			}
			text := l.src[start:l.pos]
			upper := strings.ToUpper(text)
			if keywords[upper] {
				out = append(out, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				out = append(out, token{kind: tokIdent, text: text, pos: start})
			}
		case c >= '0' && c <= '9':
			seenDot := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if ch == '.' && !seenDot {
					seenDot = true
					l.pos++
					continue
				}
				if ch < '0' || ch > '9' {
					break
				}
				l.pos++
			}
			out = append(out, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case c == '\'':
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, l.error(start, "unterminated string literal")
				}
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			out = append(out, token{kind: tokString, text: sb.String(), pos: start})
		case c == '"':
			// Double-quoted identifier: the content is the name as written
			// (no case folding, "" escapes one quote). It lexes to the same
			// tokIdent a bare spelling would, so `"ws_item_sk"` and
			// `ws_item_sk` parse identically; quoting only matters when the
			// name collides with a keyword or holds non-identifier runes.
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, l.error(start, "unterminated quoted identifier")
				}
				if l.src[l.pos] == '"' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
						sb.WriteByte('"')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			if sb.Len() == 0 {
				return nil, l.error(start, "empty quoted identifier")
			}
			out = append(out, token{kind: tokIdent, text: sb.String(), pos: start})
		default:
			// Multi-char operators first.
			for _, op := range []string{"<>", "<=", ">=", "!="} {
				if strings.HasPrefix(l.src[l.pos:], op) {
					out = append(out, token{kind: tokSymbol, text: op, pos: start})
					l.pos += 2
					goto next
				}
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', '.', '-', '+':
				out = append(out, token{kind: tokSymbol, text: string(c), pos: start})
				l.pos++
			default:
				return nil, l.error(start, "unexpected character %q", r)
			}
		next:
		}
	}
}

// peekRune decodes the rune at l.pos and its width in bytes. The source is
// UTF-8, as IsBareIdent reads it; an ASCII byte skips the decoder.
func (l *lexer) peekRune() (rune, int) {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c, w := l.peekRune()
		if unicode.IsSpace(c) {
			l.pos += w
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	return c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c)
}

// IsBareIdent reports whether s lexes as one unquoted identifier — i.e.
// double-quoting it is redundant. Keywords are not bare: they need the
// quotes to read as names rather than syntax.
func IsBareIdent(s string) bool {
	for i, r := range s {
		if i == 0 {
			if !isIdentStart(r) {
				return false
			}
		} else if !isIdentPart(r) {
			return false
		}
	}
	return s != "" && !keywords[strings.ToUpper(s)]
}

// Canonical renders src as a canonical statement key: tokens joined by
// single spaces, keywords upper-cased, comments dropped, strings re-quoted
// with doubled-quote escapes, and quoted identifiers unquoted whenever the
// quotes are redundant (IsBareIdent). Two texts get one key exactly when
// they lex to the same token stream, so the spacing, comment, keyword-case
// and quoting variants one dashboard fleet emits collapse to one cache
// slot while semantically distinct statements never collide. Identifier
// case is preserved — it is semantic (an alias names its output column
// with its written spelling). Fails where the lexer fails; callers keying
// arbitrary text need a fallback.
func Canonical(src string) (string, error) {
	toks, err := (&lexer{src: src}).lex()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(src))
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, `'`, `''`))
			b.WriteByte('\'')
		case tokIdent:
			if IsBareIdent(t.text) {
				b.WriteString(t.text)
			} else {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(t.text, `"`, `""`))
				b.WriteByte('"')
			}
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), nil
}
