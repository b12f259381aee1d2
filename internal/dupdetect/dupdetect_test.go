package dupdetect

import (
	"fmt"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/value"
)

// dirtyPeople is a merged table with known duplicate structure:
// rows {0,1} are one person (typo), {2,3,4} another (typo + missing
// data), 5 and 6 are singletons.
func dirtyPeople() *relation.Relation {
	return relation.NewBuilder("merged", "sourceID", "Name", "Age", "City", "Email").
		AddText("s1", "Jonathan Smith", "32", "Berlin", "jon@example.com").
		AddText("s2", "Jonathon Smith", "32", "Berlin", "jon@example.com").
		AddText("s1", "Maria Garcia", "27", "Hamburg", "maria@example.org").
		AddText("s2", "Maria Garcia", "27", "", "maria@example.org").
		AddText("s3", "Maria Garcia", "", "Hamburg", "").
		AddText("s1", "Wei Chen", "45", "Munich", "wei@example.net").
		AddText("s2", "Aisha Khan", "19", "Cologne", "aisha@example.com").
		Build()
}

func TestDetectClustersKnownDuplicates(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := res.ObjectIDs
	if ids[0] != ids[1] {
		t.Errorf("rows 0,1 (typo pair) not clustered: %v", ids)
	}
	if ids[2] != ids[3] || ids[3] != ids[4] {
		t.Errorf("rows 2,3,4 (Maria) not clustered: %v", ids)
	}
	if ids[5] == ids[0] || ids[5] == ids[2] || ids[6] == ids[5] || ids[6] == ids[0] {
		t.Errorf("singletons wrongly merged: %v", ids)
	}
}

func TestObjectIDsNumberedByFirstAppearance(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectIDs[0] != 0 {
		t.Errorf("first row must start cluster 0, got %d", res.ObjectIDs[0])
	}
	seen := map[int]bool{}
	maxSeen := -1
	for _, id := range res.ObjectIDs {
		if !seen[id] {
			if id != maxSeen+1 {
				t.Fatalf("cluster ids not dense in first-appearance order: %v", res.ObjectIDs)
			}
			maxSeen = id
			seen[id] = true
		}
	}
}

func TestClustersPartitionRows(t *testing.T) {
	rel := dirtyPeople()
	res, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for cid, members := range res.Clusters {
		for _, m := range members {
			if covered[m] {
				t.Fatalf("row %d appears in two clusters", m)
			}
			covered[m] = true
			if res.ObjectIDs[m] != cid {
				t.Errorf("row %d: ObjectIDs=%d but lives in cluster %d", m, res.ObjectIDs[m], cid)
			}
		}
	}
	if len(covered) != rel.Len() {
		t.Errorf("clusters cover %d rows, want %d", len(covered), rel.Len())
	}
}

func TestMissingDataHasNoInfluence(t *testing.T) {
	// Two rows agreeing on name, with age missing on one side, must
	// score the same as two rows agreeing on name with no age column
	// conflict — i.e. they should be duplicates.
	rel := relation.NewBuilder("t", "Name", "Age").
		AddText("Friedrich Wilhelm Nietzsche", "55").
		AddText("Friedrich Wilhelm Nietzsche", "").
		Build()
	res, err := DetectContext(t.Context(), rel, Config{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectIDs[0] != res.ObjectIDs[1] {
		t.Error("missing age must not prevent the duplicate")
	}
}

func TestContradictoryDataReducesSimilarity(t *testing.T) {
	// Same name, wildly different ages: the contradiction must lower
	// similarity below the same pair with the age missing.
	withConflict := relation.NewBuilder("t", "Name", "Age").
		AddText("Maria Garcia", "20").
		AddText("Maria Garcia", "80").
		Build()
	withMissing := relation.NewBuilder("t", "Name", "Age").
		AddText("Maria Garcia", "20").
		AddText("Maria Garcia", "").
		Build()
	conflict, err := DetectContext(t.Context(), withConflict, Config{Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	missing, err := DetectContext(t.Context(), withMissing, Config{Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	simOf := func(r *Result) float64 {
		all := append(append([]ScoredPair{}, r.Duplicates...), r.Borderline...)
		if len(all) == 0 {
			return 0
		}
		return all[0].Sim
	}
	_ = missing
	cs := simOf(conflict)
	// Directly compare via measure on a relaxed threshold run instead:
	relaxedC, _ := DetectContext(t.Context(), withConflict, Config{Threshold: 0.1})
	relaxedM, _ := DetectContext(t.Context(), withMissing, Config{Threshold: 0.1})
	if len(relaxedC.Duplicates) == 0 || len(relaxedM.Duplicates) == 0 {
		t.Fatal("expected scored pairs at low threshold")
	}
	if relaxedC.Duplicates[0].Sim >= relaxedM.Duplicates[0].Sim {
		t.Errorf("conflict sim %g must be below missing-data sim %g",
			relaxedC.Duplicates[0].Sim, relaxedM.Duplicates[0].Sim)
	}
	_ = cs
}

func TestNoContradictionPenaltyAblation(t *testing.T) {
	rel := relation.NewBuilder("t", "Name", "Age").
		AddText("Maria Garcia", "20").
		AddText("Maria Garcia", "80").
		Build()
	strict, err := DetectContext(t.Context(), rel, Config{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	lax, err := DetectContext(t.Context(), rel, Config{Threshold: 0.1, NoContradictionPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	if lax.Duplicates[0].Sim <= strict.Duplicates[0].Sim {
		t.Errorf("disabling the penalty must raise similarity (%g vs %g)",
			lax.Duplicates[0].Sim, strict.Duplicates[0].Sim)
	}
}

func TestFilterDoesNotChangeResults(t *testing.T) {
	// The filter is an upper bound: switching it off must yield the
	// identical clustering, only more comparisons.
	rel := dirtyPeople()
	with, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := DetectContext(t.Context(), rel, Config{DisableFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range with.ObjectIDs {
		if with.ObjectIDs[i] != without.ObjectIDs[i] {
			t.Fatalf("filter changed clustering at row %d: %v vs %v",
				i, with.ObjectIDs, without.ObjectIDs)
		}
	}
	if without.Stats.Compared < with.Stats.Compared {
		t.Error("disabling the filter cannot reduce comparisons")
	}
	if with.Stats.FilteredOut == 0 {
		t.Log("note: filter pruned nothing on this input")
	}
	if without.Stats.FilteredOut != 0 {
		t.Error("disabled filter must not filter")
	}
}

func TestStatsAddUp(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := dirtyPeople().Len()
	wantPairs := n * (n - 1) / 2
	if res.Stats.CandidatePairs != wantPairs {
		t.Errorf("CandidatePairs = %d, want %d", res.Stats.CandidatePairs, wantPairs)
	}
	if res.Stats.FilteredOut+res.Stats.Compared != res.Stats.CandidatePairs {
		t.Errorf("filtered(%d) + compared(%d) != candidates(%d)",
			res.Stats.FilteredOut, res.Stats.Compared, res.Stats.CandidatePairs)
	}
}

func TestSelectAttributesExcludesBookkeepingAndBooleans(t *testing.T) {
	rel := relation.NewBuilder("t", "sourceID", "Name", "active", "objectID").
		AddText("s1", "Alice", "true", "0").
		AddText("s2", "Bob", "false", "1").
		Build()
	attrs := SelectAttributes(rel)
	for _, a := range attrs {
		if a == "sourceID" || a == "objectID" {
			t.Errorf("bookkeeping column %q selected", a)
		}
		if a == "active" {
			t.Error("boolean column selected")
		}
	}
	if len(attrs) != 1 || attrs[0] != "Name" {
		t.Errorf("attrs = %v, want [Name]", attrs)
	}
}

func TestSelectAttributesExcludesAllNullAndConstant(t *testing.T) {
	b := relation.NewBuilder("t", "Name", "empty", "constant")
	for _, n := range []string{"Alice", "Bob", "Carol", "Dave", "Eve",
		"Frank", "Grace", "Heidi", "Ivan", "Judy", "Ken", "Laura"} {
		b.AddText(n, "", "x")
	}
	rel := b.Build()
	attrs := SelectAttributes(rel)
	for _, a := range attrs {
		if a == "empty" {
			t.Error("all-null column selected")
		}
		if a == "constant" {
			t.Error("constant column selected (cannot distinguish)")
		}
	}
}

func TestManualAttributeOverride(t *testing.T) {
	rel := dirtyPeople()
	res, err := DetectContext(t.Context(), rel, Config{Attributes: []string{"Email"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectedAttributes) != 1 || res.SelectedAttributes[0] != "Email" {
		t.Errorf("SelectedAttributes = %v", res.SelectedAttributes)
	}
	// With only Email: rows 0,1 share an email → duplicates; row 4 has
	// NULL email → alone.
	if res.ObjectIDs[0] != res.ObjectIDs[1] {
		t.Error("email-only detection must pair rows 0,1")
	}
	if res.ObjectIDs[4] == res.ObjectIDs[2] {
		t.Error("row 4 (null email) must not join Maria's cluster on email alone")
	}
}

func TestDetectUnknownAttributeErrors(t *testing.T) {
	if _, err := DetectContext(t.Context(), dirtyPeople(), Config{Attributes: []string{"nope"}}); err == nil {
		t.Error("unknown attribute must error")
	}
}

func TestDetectNoUsableAttributesErrors(t *testing.T) {
	rel := relation.NewBuilder("t", "sourceID").AddText("s1").Build()
	if _, err := DetectContext(t.Context(), rel, Config{}); err == nil {
		t.Error("relation with only bookkeeping columns must error")
	}
}

func TestAppendObjectID(t *testing.T) {
	rel := dirtyPeople()
	res, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := AppendObjectID(rel, res)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Has(ObjectIDColumn) {
		t.Fatal("objectID column missing")
	}
	if out.Len() != rel.Len() {
		t.Fatalf("rows = %d, want %d", out.Len(), rel.Len())
	}
	for i := 0; i < out.Len(); i++ {
		got := out.Value(i, ObjectIDColumn)
		if !got.Equal(value.NewInt(int64(res.ObjectIDs[i]))) {
			t.Errorf("row %d objectID = %v, want %d", i, got, res.ObjectIDs[i])
		}
	}
	// Mismatched result must fail.
	short := &Result{ObjectIDs: []int{0}}
	if _, err := AppendObjectID(rel, short); err == nil {
		t.Error("mismatched result length must error")
	}
}

func TestTransitiveClosure(t *testing.T) {
	// A≈B and B≈C but A vs C differ more strongly; transitive closure
	// must still put all three in one cluster.
	rel := relation.NewBuilder("t", "Name").
		AddText("Christina Aguilera Fernandez").
		AddText("Christina Aguilera Fernandes").
		AddText("Christina Aguilera Fernandos").
		Build()
	res, err := DetectContext(t.Context(), rel, Config{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectIDs[0] != res.ObjectIDs[1] || res.ObjectIDs[1] != res.ObjectIDs[2] {
		t.Errorf("transitive closure failed: %v", res.ObjectIDs)
	}
}

func TestBorderlineCases(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{Threshold: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	// At an extreme threshold the exact-match pairs may survive but
	// typo pairs land in the borderline band or below.
	for _, p := range res.Borderline {
		if p.Sim >= 0.999 || p.Sim < 0.999*0.9 {
			t.Errorf("borderline pair %v outside [0.9t, t)", p)
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind(5)
	u.union(0, 1)
	u.union(3, 4)
	u.union(1, 3)
	ids, clusters := u.clusters()
	if ids[0] != ids[1] || ids[1] != ids[3] || ids[3] != ids[4] {
		t.Errorf("ids = %v", ids)
	}
	if ids[2] == ids[0] {
		t.Error("row 2 wrongly merged")
	}
	if len(clusters) != 2 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestSortedNeighborhoodFindsAdjacentDuplicates(t *testing.T) {
	rel := dirtyPeople()
	full, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snm, err := DetectContext(t.Context(), rel, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	// On this small table every duplicate's sorting keys are adjacent,
	// so the clustering must agree with the exhaustive run.
	for i := range full.ObjectIDs {
		if full.ObjectIDs[i] != snm.ObjectIDs[i] {
			t.Fatalf("SNM clustering diverged at row %d: %v vs %v",
				i, snm.ObjectIDs, full.ObjectIDs)
		}
	}
	if snm.Stats.CandidatePairs >= full.Stats.CandidatePairs {
		t.Errorf("SNM candidates %d must be below exhaustive %d",
			snm.Stats.CandidatePairs, full.Stats.CandidatePairs)
	}
}

func TestSortedNeighborhoodScalesLinearly(t *testing.T) {
	// Candidate pairs under SNM are ≤ n·window.
	b := relation.NewBuilder("t", "Name")
	for i := 0; i < 200; i++ {
		b.AddText(fmt.Sprintf("person number %04d", i))
	}
	rel := b.Build()
	res, err := DetectContext(t.Context(), rel, Config{Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CandidatePairs > 200*5 {
		t.Errorf("candidates = %d, want ≤ n·window = 1000", res.Stats.CandidatePairs)
	}
}
