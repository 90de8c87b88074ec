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

// span is one scanned token before any text is built: where it starts
// (pos) and the source bytes its text comes from (src[from:to]). A string
// literal's or quoted identifier's text is its content between the quotes,
// escapes still doubled; a bare word is tokIdent whether or not it is a
// keyword.
type span struct {
	kind     tokenKind
	quoted   bool // a double-quoted identifier
	pos      int
	from, to int
}

// lex tokenizes the whole input.
func (l *lexer) lex() ([]token, error) {
	var out []token
	for {
		s, err := l.scan()
		if err != nil {
			return nil, err
		}
		text := l.src[s.from:s.to]
		switch {
		case s.kind == tokString:
			text = strings.ReplaceAll(text, `''`, `'`)
		case s.quoted:
			// A quoted identifier's content is the name as written (no case
			// folding, "" escapes one quote). It lexes to the same tokIdent
			// a bare spelling would, so `"ws_item_sk"` and `ws_item_sk`
			// parse identically; quoting only matters when the name
			// collides with a keyword or holds non-identifier runes.
			text = strings.ReplaceAll(text, `""`, `"`)
		case s.kind == tokIdent && isKeyword(text):
			s.kind, text = tokKeyword, strings.ToUpper(text)
		}
		out = append(out, token{kind: s.kind, text: text, pos: s.pos})
		if s.kind == tokEOF {
			return out, nil
		}
	}
}

// scan advances over the next token and returns its span; at the end of
// the input it returns a tokEOF span.
func (l *lexer) scan() (span, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return span{kind: tokEOF, pos: start, from: start, to: start}, nil
	}
	c := l.src[l.pos]
	r, w := l.peekRune()
	switch {
	case isIdentStart(r):
		for l.pos += w; l.pos < len(l.src); l.pos += w {
			if r, w = l.peekRune(); !isIdentPart(r) {
				break
			}
		}
		return span{kind: tokIdent, pos: start, from: start, to: l.pos}, nil
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
		return span{kind: tokNumber, pos: start, from: start, to: l.pos}, nil
	case c == '\'':
		to, ok := l.quoted('\'')
		if !ok {
			return span{}, l.error(start, "unterminated string literal")
		}
		return span{kind: tokString, pos: start, from: start + 1, to: to}, nil
	case c == '"':
		to, ok := l.quoted('"')
		if !ok {
			return span{}, l.error(start, "unterminated quoted identifier")
		}
		if to == start+1 {
			return span{}, l.error(start, "empty quoted identifier")
		}
		return span{kind: tokIdent, quoted: true, pos: start, from: start + 1, to: to}, nil
	}
	// Multi-char operators first.
	if l.pos+1 < len(l.src) {
		switch l.src[l.pos : l.pos+2] {
		case "<>", "<=", ">=", "!=":
			l.pos += 2
			return span{kind: tokSymbol, pos: start, from: start, to: l.pos}, nil
		}
	}
	switch c {
	case '(', ')', ',', '*', '=', '<', '>', '.', '-', '+':
		l.pos++
		return span{kind: tokSymbol, pos: start, from: start, to: l.pos}, nil
	}
	return span{}, l.error(start, "unexpected character %q", r)
}

// quoted advances over a region opened by the quote at l.pos, in which a
// doubled quote is one escaped quote, and returns where its content ends
// (the closing quote's offset); false when the input ends first.
func (l *lexer) quoted(quote byte) (int, bool) {
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != quote {
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
			l.pos++
			continue
		}
		l.pos++
		return l.pos - 1, true
	}
	return 0, false
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

// maxKeywordBytes bounds the spelling of a word that upper-cases to a
// keyword: the longest keyword, at the 4 bytes a rune takes at most.
const maxKeywordBytes = 4 * len("UNBOUNDED")

// isKeyword reports whether word, upper-cased as strings.ToUpper does it,
// is a keyword. It allocates nothing: the upper-cased spelling is built on
// the stack.
func isKeyword(word string) bool {
	if len(word) > maxKeywordBytes {
		return false
	}
	var buf [maxKeywordBytes]byte
	return keywords[string(appendUpper(buf[:0], word))]
}

// appendUpper appends word upper-cased rune by rune, which is what
// strings.ToUpper does with valid UTF-8 (every identifier is).
func appendUpper(dst []byte, word string) []byte {
	for _, r := range word {
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
			dst = append(dst, byte(r))
			continue
		}
		dst = utf8.AppendRune(dst, unicode.ToUpper(r))
	}
	return dst
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
	return s != "" && !isKeyword(s)
}

// Canonical renders src as a canonical statement key: tokens joined by
// single spaces, keywords upper-cased, comments dropped, strings re-quoted
// with doubled-quote escapes, and quoted identifiers unquoted whenever the
// quotes are redundant (IsBareIdent). Two texts get one key exactly when
// they lex to the same token stream, so the spacing, comment, keyword-case
// and quoting variants one dashboard fleet emits collapse to one cache
// slot while semantically distinct statements never collide. Identifier
// case is preserved — it is semantic (an alias names its output column
// with its written spelling). Fails where the lexer fails.
func Canonical(src string) (string, error) {
	key, err := AppendCanonical(make([]byte, 0, len(src)), src)
	if err != nil {
		return "", err
	}
	return string(key), nil
}

// AppendCanonical appends Canonical(src) to dst in one pass over the text,
// building no token: what a plan-cache lookup keys on, into a buffer it
// reuses. On a lexer error dst holds a prefix of the key.
func AppendCanonical(dst []byte, src string) ([]byte, error) {
	l := lexer{src: src}
	for first := true; ; first = false {
		s, err := l.scan()
		if err != nil || s.kind == tokEOF {
			return dst, err
		}
		if !first {
			dst = append(dst, ' ')
		}
		// A string literal's or quoted identifier's content is already in
		// its doubled-quote escaped form, which is the canonical one.
		text := src[s.from:s.to]
		switch {
		case s.kind == tokString:
			dst = append(append(append(dst, '\''), text...), '\'')
		case s.quoted && !IsBareIdent(text):
			dst = append(append(append(dst, '"'), text...), '"')
		case s.kind == tokIdent && !s.quoted && len(text) <= maxKeywordBytes:
			mark := len(dst)
			if dst = appendUpper(dst, text); !keywords[string(dst[mark:])] {
				dst = append(dst[:mark], text...)
			}
		default:
			dst = append(dst, text...)
		}
	}
}
