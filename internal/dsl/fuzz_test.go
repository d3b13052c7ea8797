package dsl_test

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/dsl/printer"
)

// FuzzLoad feeds arbitrary design source through the whole front end:
// parse, check, print, reparse, print. Design source arrives over the
// host's deploy admin op, so no input may panic; whatever parses must print
// to text that reparses, printing must be idempotent, and the checker's
// verdict must survive the round trip.
func FuzzLoad(f *testing.F) {
	for _, src := range []string{
		designs.Cooker,
		designs.Parking,
		designs.Avionics,
		designs.AssistedLivingTaxonomy + "\n" + designs.NightPath,
		designs.AssistedLivingTaxonomy + "\n" + designs.ActivityDigest,
		"controller r{}structure r{A as A;}",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := dsl.Parse(src)
		if err != nil {
			return
		}
		_, checkErr := dsl.Check(d)
		once := printer.Print(d)
		d2, err := dsl.Parse(once)
		if err != nil {
			t.Fatalf("printed design does not reparse: %v\n%s", err, once)
		}
		if twice := printer.Print(d2); twice != once {
			t.Fatalf("print is not idempotent:\n%s\n---\n%s", once, twice)
		}
		if _, err := dsl.Check(d2); (err == nil) != (checkErr == nil) {
			t.Fatalf("check verdict changed across print: %v, then %v\n%s", checkErr, err, once)
		}
	})
}
