package watdiv

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 0.05, Seed: 7})
	b := Generate(Config{Scale: 0.05, Seed: 7})
	if len(a.Triples) != len(b.Triples) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Triples), len(b.Triples))
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			t.Fatalf("triple %d differs", i)
		}
	}
	c := Generate(Config{Scale: 0.05, Seed: 8})
	if len(a.Triples) == len(c.Triples) {
		same := true
		for i := range a.Triples {
			if a.Triples[i] != c.Triples[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical data")
		}
	}
}

// TestGenerateToMatchesGenerate: the streaming form emits exactly the
// triples Generate collects, in the same order, with the same pools.
func TestGenerateToMatchesGenerate(t *testing.T) {
	cfg := Config{Scale: 0.05, Seed: 7}
	want := Generate(cfg)
	var got []rdf.Triple
	d := GenerateTo(cfg, func(tr rdf.Triple) { got = append(got, tr) })
	if !reflect.DeepEqual(got, want.Triples) {
		t.Fatalf("GenerateTo emitted %d triples, Generate collected %d (or their order differs)", len(got), len(want.Triples))
	}
	if d.Triples != nil || !reflect.DeepEqual(d.Pools, want.Pools) {
		t.Fatal("GenerateTo's Data must carry Generate's pools and no triples")
	}
}

func TestGenerateScalesLinearly(t *testing.T) {
	small := Generate(Config{Scale: 0.2, Seed: 1})
	big := Generate(Config{Scale: 0.4, Seed: 1})
	ratio := float64(len(big.Triples)) / float64(len(small.Triples))
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("doubling scale changed size by %.2fx (small=%d big=%d)",
			ratio, len(small.Triples), len(big.Triples))
	}
}

// TestPredicateProfile verifies the size profile the paper's experiments
// depend on: friendOf ≈ 0.41|G|, follows ≈ 0.30|G|, likes ≈ 0.01|G|.
func TestPredicateProfile(t *testing.T) {
	d := Generate(Config{Scale: 0.5, Seed: 42})
	counts := map[rdf.Term]int{}
	for _, tr := range d.Triples {
		counts[tr.P]++
	}
	n := float64(len(d.Triples))
	frac := func(p rdf.Term) float64 { return float64(counts[p]) / n }

	if f := frac(pFriendOf); f < 0.30 || f > 0.50 {
		t.Errorf("friendOf fraction = %.3f, want ≈ 0.41", f)
	}
	if f := frac(pFollows); f < 0.22 || f > 0.40 {
		t.Errorf("follows fraction = %.3f, want ≈ 0.30", f)
	}
	if f := frac(pLikes); f < 0.004 || f > 0.03 {
		t.Errorf("likes fraction = %.3f, want ≈ 0.01", f)
	}
	if f := frac(pReviewer); f < 0.004 || f > 0.03 {
		t.Errorf("reviewer fraction = %.3f, want ≈ 0.01", f)
	}
	// Users never have sorg:language (the ST-8 empty-correlation queries
	// depend on this).
	for _, tr := range d.Triples {
		if tr.P == pLanguage && strings.Contains(tr.S.Value(), "User") {
			t.Fatalf("user %v has sorg:language", tr.S)
		}
	}
}

func TestPoolsPopulated(t *testing.T) {
	d := Generate(Config{Scale: 0.05, Seed: 1})
	for _, class := range []string{
		"User", "Product", "Review", "Offer", "Retailer", "Purchase",
		"Website", "City", "Country", "Topic", "SubGenre",
		"ProductCategory", "AgeGroup", "Role", "Language",
	} {
		if len(d.Entities(class)) == 0 {
			t.Errorf("pool %q empty", class)
		}
	}
	// Entities referenced literally by the Basic queries must exist.
	if len(d.Entities("Country")) < 6 {
		t.Error("need at least 6 countries (wsdbm:Country5)")
	}
	if len(d.Entities("Role")) < 3 {
		t.Error("need at least 3 roles (wsdbm:Role2)")
	}
	if len(d.Entities("ProductCategory")) < 3 {
		t.Error("need at least 3 product categories (wsdbm:ProductCategory2)")
	}
}

func TestAllTemplatesParse(t *testing.T) {
	d := Generate(Config{Scale: 0.05, Seed: 1})
	rng := rand.New(rand.NewSource(3))
	var all []Template
	all = append(all, BasicTemplates()...)
	all = append(all, STTemplates()...)
	all = append(all, ILTemplates()...)
	if len(all) != 20+20+18 {
		t.Fatalf("template count = %d, want 58", len(all))
	}
	for _, tpl := range all {
		src := tpl.Instantiate(d, rng)
		if strings.Contains(src, "%") {
			t.Errorf("%s: unsubstituted placeholder in %q", tpl.Name, src)
		}
		if _, err := sparql.Parse(src); err != nil {
			t.Errorf("%s: parse error: %v\n%s", tpl.Name, err, src)
		}
	}
}

func TestBasicTemplateShapes(t *testing.T) {
	counts := map[string]int{}
	for _, tpl := range BasicTemplates() {
		counts[tpl.Shape]++
	}
	if counts["L"] != 5 || counts["S"] != 7 || counts["F"] != 5 || counts["C"] != 3 {
		t.Errorf("shape counts = %v", counts)
	}
}

func TestILTemplateStructure(t *testing.T) {
	// IL-1-7 must have 7 triple patterns, user-bound subject on the first.
	tpl := ILTemplate("IL-1", 7)
	if tpl.Name != "IL-1-7" {
		t.Errorf("Name = %q", tpl.Name)
	}
	if n := strings.Count(tpl.Text, " .\n"); n != 7 {
		t.Errorf("pattern count = %d, want 7", n)
	}
	if !strings.Contains(tpl.Text, "%v0% wsdbm:follows ?v1") {
		t.Errorf("first pattern wrong:\n%s", tpl.Text)
	}
	if tpl.Mappings["v0"] != "User" {
		t.Errorf("Mappings = %v", tpl.Mappings)
	}
	// IL-3 is unbound: no placeholders, ?v0 projected.
	t3 := ILTemplate("IL-3", 5)
	if t3.HasPlaceholders() {
		t.Error("IL-3 should have no placeholders")
	}
	if !strings.Contains(t3.Text, "SELECT ?v0 ?v1") {
		t.Errorf("IL-3 projection wrong:\n%s", t3.Text)
	}
	// IL-2 ends with sorg:caption at diameter 10.
	t2 := ILTemplate("IL-2", 10)
	if !strings.Contains(t2.Text, "?v9 sorg:caption ?v10") {
		t.Errorf("IL-2-10 last hop wrong:\n%s", t2.Text)
	}
}

func TestILTemplatePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ILTemplate("IL-1", 11)
}

func TestInstantiateUsesDistinctEntities(t *testing.T) {
	d := Generate(Config{Scale: 0.05, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	tpl := BasicTemplates()[0] // L1, website placeholder
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		seen[tpl.Instantiate(d, rng)] = true
	}
	if len(seen) < 2 {
		t.Error("instantiation never varies")
	}
}
