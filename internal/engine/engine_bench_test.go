package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hummer/internal/expr"
	"hummer/internal/relation"
	"hummer/internal/value"
)

func randomRelation(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("t", "id", "group", "val")
	for i := 0; i < n; i++ {
		b.Add(
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("g%d", rng.Intn(20))),
			value.NewFloat(rng.Float64()*100),
		)
	}
	return b.Build()
}

func mustMaterialize(b *testing.B, op Operator) {
	b.Helper()
	if _, err := MaterializeContext(b.Context(), "out", op); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFilter(b *testing.B) {
	rel := randomRelation(10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pred := expr.NewCmp(expr.GT, expr.NewCol("val"), expr.NewLit(value.NewFloat(50)))
		mustMaterialize(b, NewFilter(NewScan(rel), pred))
	}
}

func BenchmarkHashJoin(b *testing.B) {
	left := randomRelation(5000, 2)
	right := randomRelation(5000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := NewHashJoin(NewScan(left), NewScan(right), "id", "id")
		if err != nil {
			b.Fatal(err)
		}
		mustMaterialize(b, j)
	}
}

func BenchmarkOuterUnion(b *testing.B) {
	a := randomRelation(5000, 4)
	// A second relation with partially different schema forces padding.
	rng := rand.New(rand.NewSource(5))
	cb := relation.NewBuilder("u", "id", "extra")
	for i := 0; i < 5000; i++ {
		cb.Add(value.NewInt(int64(i)), value.NewFloat(rng.Float64()))
	}
	c := cb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := NewOuterUnion(NewScan(a), NewScan(c))
		if err != nil {
			b.Fatal(err)
		}
		mustMaterialize(b, u)
	}
}

func BenchmarkGroupAggregate(b *testing.B) {
	rel := randomRelation(10000, 6)
	cnt, _ := LookupAgg("count")
	sum, _ := LookupAgg("sum")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewGroup(NewScan(rel), []string{"group"}, []AggSpec{
			{Factory: cnt, Col: "*", As: "n"},
			{Factory: sum, Col: "val", As: "total"},
		})
		if err != nil {
			b.Fatal(err)
		}
		mustMaterialize(b, g)
	}
}

func BenchmarkSort(b *testing.B) {
	rel := randomRelation(10000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustMaterialize(b, NewSort(NewScan(rel), []SortKey{{Col: "val", Desc: true}}))
	}
}

func BenchmarkDistinct(b *testing.B) {
	rel := randomRelation(10000, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustMaterialize(b, NewDistinct(NewProjectCols(NewScan(rel), "group")))
	}
}
