package sql

import (
	"testing"
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
