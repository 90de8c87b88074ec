package sql

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/paper"
)

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`
		SELECT DISTINCT a, b AS bee, sum(c) OVER (PARTITION BY a, b ORDER BY d DESC NULLS FIRST
		       ROWS BETWEEN 2 PRECEDING AND UNBOUNDED FOLLOWING) total
		FROM t
		WHERE (a >= 1 AND b <> 'x''y') OR NOT c IS NULL
		ORDER BY bee DESC, a NULLS FIRST
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Table != "t" || q.Limit != 10 {
		t.Errorf("query header wrong: %+v", q)
	}
	if len(q.Items) != 3 {
		t.Fatalf("items = %d", len(q.Items))
	}
	if q.Items[1].Alias != "bee" || q.Items[2].Alias != "total" {
		t.Errorf("aliases: %q %q", q.Items[1].Alias, q.Items[2].Alias)
	}
	w := q.Items[2].Window
	if w == nil || w.Func != "sum" || len(w.PartitionBy) != 2 {
		t.Fatalf("window call: %+v", w)
	}
	if len(w.OrderBy) != 1 || !w.OrderBy[0].Desc || !w.OrderBy[0].NullsFirst {
		t.Errorf("window order: %+v", w.OrderBy)
	}
	if w.Frame == nil || !w.Frame.Rows || w.Frame.Start.Kind != "PRECEDING" ||
		w.Frame.Start.Offset != 2 || w.Frame.End.Kind != "UNBOUNDED FOLLOWING" {
		t.Errorf("frame: %+v", w.Frame)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || !q.OrderBy[1].NullsFirst {
		t.Errorf("order by: %+v", q.OrderBy)
	}
	be, ok := q.Where.(*BinaryExpr)
	if !ok || be.Op != "OR" {
		t.Fatalf("where root: %T", q.Where)
	}
}

func TestParseSingleBoundFrame(t *testing.T) {
	q, err := Parse(`SELECT sum(c) OVER (ORDER BY d RANGE UNBOUNDED PRECEDING) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	f := q.Items[0].Window.Frame
	if f.Rows || f.Start.Kind != "UNBOUNDED PRECEDING" || f.End.Kind != "CURRENT ROW" {
		t.Errorf("shorthand frame: %+v", f)
	}
}

func TestParseDefaultNullOrdering(t *testing.T) {
	q, err := Parse(`SELECT a FROM t ORDER BY a, b DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// PostgreSQL default: ASC → NULLS LAST, DESC → NULLS FIRST.
	if q.OrderBy[0].NullsFirst {
		t.Errorf("ASC should default to NULLS LAST")
	}
	if !q.OrderBy[1].NullsFirst {
		t.Errorf("DESC should default to NULLS FIRST")
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse(`SELECT lead(a, 2, -5) OVER (ORDER BY a) FROM t WHERE b = 'it''s' AND c <> 2.5 AND d = TRUE AND e = NULL`)
	if err != nil {
		t.Fatal(err)
	}
	args := q.Items[0].Window.Args
	if len(args) != 3 || args[1].Lit.Int == nil || *args[1].Lit.Int != 2 {
		t.Errorf("args: %+v", args)
	}
	if *args[2].Lit.Int != -5 {
		t.Errorf("negative literal: %+v", args[2].Lit)
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("SELECT a -- trailing comment\nFROM t -- another\n")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "t" {
		t.Errorf("comments broke parsing")
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse(`SELECT count(*) OVER () FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Items[0].Window.Star {
		t.Errorf("count(*) star flag missing")
	}
}

func TestParseBareAlias(t *testing.T) {
	q, err := Parse(`SELECT a the_a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Alias != "the_a" {
		t.Errorf("bare alias: %+v", q.Items[0])
	}
}

func TestParseMoreErrors(t *testing.T) {
	bad := []string{
		"SELECT a FROM t WHERE a IS",            // incomplete IS
		"SELECT a FROM t ORDER BY a NULLS",      // incomplete NULLS
		"SELECT f(a) OVER (PARTITION a) FROM t", // missing BY
		"SELECT f(a) OVER (ROWS BETWEEN 1 PRECEDING AND) FROM t",
		"SELECT f(a) OVER (ROWS BETWEEN UNBOUNDED AND 1 FOLLOWING) FROM t",
		"SELECT f(a) OVER (ROWS 1) FROM t", // bare offset, no direction
		"SELECT a FROM t LIMIT x",          // non-numeric limit
		"SELECT a FROM t extra stuff ~",    // trailing garbage
		"SELECT lead(a, 1, ) OVER (ORDER BY a) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	q, err := Parse(`SELECT "a", sum("c") OVER (PARTITION BY "a" ORDER BY "d") AS "Total", "order" FROM "t" WHERE "a" >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "t" {
		t.Errorf("quoted table: %q", q.Table)
	}
	if q.Items[1].Alias != "Total" {
		t.Errorf("quoted alias kept its case: %q", q.Items[1].Alias)
	}
	if q.Items[2].Column != "order" {
		t.Errorf("quoted keyword as column: %+v", q.Items[2])
	}
	bad := []string{
		`SELECT "a FROM t`, // unterminated
		`SELECT "" FROM t`, // empty
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select  a\nfrom t -- c", "SELECT a FROM t"},
		{`SELECT "a", "it""s", "order" FROM "t"`, `SELECT a , "it""s" , "order" FROM t`},
		{`SELECT 'it''s' FROM t WHERE a <> 2.50`, `SELECT 'it''s' FROM t WHERE a <> 2.50`},
		{"select *  from\tweb_sales", "SELECT * FROM web_sales"},
		{`SELECT "ws_item_sk" FROM "web_sales"`, "SELECT ws_item_sk FROM web_sales"},
		{"SELECT * FROM t -- trailing comment\nWHERE a = 1", "SELECT * FROM t WHERE a = 1"},
		{"SELECT 'it''s  spaced' FROM t", "SELECT 'it''s  spaced' FROM t"},
		{`SELECT "order" FROM t`, `SELECT "order" FROM t`}, // quoted keyword stays quoted
		{`SELECT "a b" FROM t`, `SELECT "a b" FROM t`},     // non-identifier content stays quoted
		{`SELECT x"y" FROM t`, "SELECT x y FROM t"},        // adjacent quoted ident is not concatenation
		{"ſelect ıs FROM t", "SELECT IS FROM t"},           // keywords fold as strings.ToUpper does
	}
	for _, tc := range cases {
		got, err := Canonical(tc.in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
		// Canonical is a fixed point: re-rendering changes nothing.
		again, err := Canonical(got)
		if err != nil || again != got {
			t.Errorf("Canonical(%q) not a fixed point: %q, %v", got, again, err)
		}
	}
	if _, err := Canonical("SELECT $"); err == nil {
		t.Error("Canonical should fail where the lexer fails")
	}

	key := func(src string) string {
		t.Helper()
		k, err := Canonical(src)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", src, err)
		}
		return k
	}
	same := [][2]string{
		{"SELECT  *\nFROM web_sales", "select * from web_sales"},
		{`SELECT "ws_item_sk", rank() OVER (PARTITION BY "ws_item_sk" ORDER BY ws_sold_time_sk) AS r FROM web_sales`, paper.Statements["Q1"]},
		{"SELECT a FROM t -- dashboard 7\n", "SELECT a FROM t"},
	}
	for _, p := range same {
		if key(p[0]) != key(p[1]) {
			t.Errorf("keys differ for equivalent statements:\n  %q -> %q\n  %q -> %q", p[0], key(p[0]), p[1], key(p[1]))
		}
	}
	distinct := [][2]string{
		{"SELECT x AS E FROM t", "SELECT x AS e FROM t"}, // alias case is semantic
		{"SELECT 'a' FROM t", "SELECT 'A' FROM t"},
		{`SELECT "order" FROM t`, `SELECT "ORDER" FROM t`},
		{`SELECT x"y" FROM t`, "SELECT xy FROM t"},
	}
	for _, p := range distinct {
		if key(p[0]) == key(p[1]) {
			t.Errorf("distinct statements share key %q:\n  %q\n  %q", key(p[0]), p[0], p[1])
		}
	}
}

// tokenKey is the statement key as the token stream spells it: lex, then
// join the tokens, re-quoting strings and the identifiers that need it.
// Canonical must equal it byte for byte without building the tokens.
func tokenKey(src string) (string, error) {
	toks, err := (&lexer{src: src}).lex()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range toks[:len(toks)-1] {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case t.kind == tokString:
			b.WriteString("'" + strings.ReplaceAll(t.text, `'`, `''`) + "'")
		case t.kind == tokIdent && !IsBareIdent(t.text):
			b.WriteString(`"` + strings.ReplaceAll(t.text, `"`, `""`) + `"`)
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), nil
}

// TestCanonicalIsTheTokenKey holds the one-pass key to the token stream's
// spelling over the paper's statements and the generated ones, and a warm
// AppendCanonical into a reused buffer to no allocation.
func TestCanonicalIsTheTokenKey(t *testing.T) {
	corpus := []string{"SELECT $ FROM t", `SELECT "" FROM t`, "SELECT 'a"}
	for _, src := range paper.Statements {
		corpus = append(corpus, src, "SUBSCRIBE "+src)
	}
	for _, c := range append(gen.Cases(50), gen.Regressions()...) {
		corpus = append(corpus, c.Stmt.SQL())
	}
	for _, src := range corpus {
		got, err := Canonical(src)
		want, wantErr := tokenKey(src)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("Canonical(%q) = %q, %v; the tokens spell %q, %v", src, got, err, want, wantErr)
		}
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = AppendCanonical(buf[:0], paper.Statements["Q9"])
	}); n != 0 {
		t.Errorf("a warm AppendCanonical of Q9 allocates %v times, want 0", n)
	}
}

// FuzzCanonical checks the statement key on arbitrary text: where the
// lexer accepts a text, its canonical form lexes too, is its own canonical
// form, and parses exactly when the text does — so a cache keyed by it
// never files a statement under a key that means something else.
func FuzzCanonical(f *testing.F) {
	f.Add("select  a\nfrom t -- c")
	f.Add(`SELECT "a", "it""s", "order" FROM "t"`)
	f.Add(`SELECT 'it''s' FROM t WHERE a <> 2.50`)
	f.Add(`SELECT é, rank() OVER (PARTITION BY "Ҵ" ORDER BY ê) AS "naïve" FROM t`)
	f.Fuzz(func(t *testing.T, src string) {
		canon, err := Canonical(src)
		if want, wantErr := tokenKey(src); canon != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("Canonical(%q) = %q, %v; the tokens spell %q, %v", src, canon, err, want, wantErr)
		}
		if err != nil {
			return
		}
		again, err := Canonical(canon)
		if err != nil {
			t.Fatalf("Canonical(%q) = %q, which does not lex: %v", src, canon, err)
		}
		if again != canon {
			t.Fatalf("Canonical(%q) = %q, whose canonical form is %q", src, canon, again)
		}
		_, srcErr := Parse(src)
		_, canonErr := Parse(canon)
		if (srcErr == nil) != (canonErr == nil) {
			t.Fatalf("Parse(%q): %v, but Parse(%q): %v", src, srcErr, canon, canonErr)
		}
	})
}
