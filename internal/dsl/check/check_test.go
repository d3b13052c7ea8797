package check_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/dsl/ast"
	"repro/internal/dsl/check"
	"repro/internal/dsl/designs"
)

func load(t *testing.T, src string) *check.Model {
	t.Helper()
	m, err := dsl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := dsl.Load(src)
	if err == nil {
		t.Fatalf("Load succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestCookerDesignChecks(t *testing.T) {
	m := load(t, designs.Cooker)
	if len(m.Devices) != 3 || len(m.Contexts) != 2 || len(m.Controllers) != 2 {
		t.Fatalf("inventory = %d devices / %d contexts / %d controllers, want 3/2/2",
			len(m.Devices), len(m.Contexts), len(m.Controllers))
	}
	alert := m.Contexts["Alert"]
	if alert.Type.Kind != check.KindInteger {
		t.Fatalf("Alert type = %v", alert.Type)
	}
	in := alert.Interactions[0]
	if in.Kind != check.Provided || in.TriggerDevice.Name != "Clock" || in.TriggerSource.Name != "tickSecond" {
		t.Fatalf("Alert trigger = %+v", in)
	}
	if len(in.Gets) != 1 || in.Gets[0].Target() != "Cooker.consumption" {
		t.Fatalf("Alert gets = %+v", in.Gets)
	}
	if in.Publish != ast.MaybePublish {
		t.Fatalf("Alert publish = %v", in.Publish)
	}
	// Functional chain: Alert feeds Notify; RemoteTurnOff feeds TurnOff.
	if subs := alert.Subscribers; len(subs) != 1 || subs[0] != "Notify" {
		t.Fatalf("Alert subscribers = %v", subs)
	}
	turnOff := m.Controllers["TurnOff"]
	act := turnOff.Interactions[0].Actions[0]
	if act.Device.Name != "Cooker" || act.Action.Name != "Off" {
		t.Fatalf("TurnOff action = %+v", act)
	}
}

func TestParkingDesignChecks(t *testing.T) {
	m := load(t, designs.Parking)
	if len(m.Devices) != 5 || len(m.Contexts) != 4 || len(m.Controllers) != 3 {
		t.Fatalf("inventory = %d/%d/%d, want 5/4/3", len(m.Devices), len(m.Contexts), len(m.Controllers))
	}

	pa := m.Contexts["ParkingAvailability"]
	in := pa.Interactions[0]
	if in.Kind != check.Periodic || in.Period != 10*time.Minute {
		t.Fatalf("PA interaction = %+v", in)
	}
	if in.GroupBy == nil || in.GroupBy.Name != "parkingLot" {
		t.Fatalf("PA groupBy = %+v", in.GroupBy)
	}
	if in.MapType.Kind != check.KindBoolean || in.RedType.Kind != check.KindInteger {
		t.Fatalf("PA map/reduce = %v/%v", in.MapType, in.RedType)
	}
	if pa.Type.Kind != check.KindArray || pa.Type.Elem.Name != "Availability" {
		t.Fatalf("PA type = %v", pa.Type)
	}

	// Figure 4 fan-out: ParkingAvailability feeds the entrance panel
	// controller and the suggestion context.
	wantSubs := []string{"ParkingEntrancePanelController", "ParkingSuggestion"}
	if got := pa.Subscribers; len(got) != 2 || got[0] != wantSubs[0] || got[1] != wantSubs[1] {
		t.Fatalf("PA subscribers = %v, want %v", got, wantSubs)
	}

	up := m.Contexts["ParkingUsagePattern"]
	if !up.Required || up.Publishes {
		t.Fatalf("UsagePattern required=%v publishes=%v, want true/false", up.Required, up.Publishes)
	}

	ao := m.Contexts["AverageOccupancy"]
	if ao.Interactions[0].Every != 24*time.Hour {
		t.Fatalf("AverageOccupancy every = %v", ao.Interactions[0].Every)
	}

	// Taxonomy flattening: ParkingEntrancePanel inherits update.
	pep := m.Devices["ParkingEntrancePanel"]
	if pep.Extends != "DisplayPanel" || len(pep.Ancestors) != 1 {
		t.Fatalf("PEP ancestry = %+v", pep)
	}
	act, ok := pep.Actions["update"]
	if !ok || !act.Inherited {
		t.Fatalf("PEP.update = %+v, want inherited action", act)
	}
	if kinds := pep.Kinds(); len(kinds) != 2 || kinds[0] != "ParkingEntrancePanel" || kinds[1] != "DisplayPanel" {
		t.Fatalf("PEP kinds = %v", kinds)
	}

	sugg := m.Contexts["ParkingSuggestion"]
	g := sugg.Interactions[0].Gets[0]
	if g.Kind != check.FromContext || g.Context.Name != "ParkingUsagePattern" {
		t.Fatalf("suggestion get = %+v", g)
	}
}

func TestAvionicsDesignChecks(t *testing.T) {
	m := load(t, designs.Avionics)
	if len(m.Devices) != 4 || len(m.Contexts) != 4 || len(m.Controllers) != 2 {
		t.Fatalf("inventory = %d/%d/%d", len(m.Devices), len(m.Contexts), len(m.Controllers))
	}
	est := m.Contexts["FlightStateEstimator"]
	if !est.Required {
		t.Fatal("FlightStateEstimator must be pull-capable")
	}
}

func TestSCCConformanceControllerCannotSubscribeToDevice(t *testing.T) {
	loadErr(t, `
device D { source s as Integer; }
controller K { when provided D do a on D; }
`, "SCC violation: controllers subscribe to contexts, not devices")
}

func TestSCCConformanceControllerCannotSubscribeToController(t *testing.T) {
	loadErr(t, `
device D { source s as Integer; action a; }
context C as Integer { when provided s from D always publish; }
controller K1 { when provided C do a on D; }
controller K2 { when provided K1 do a on D; }
`, "controllers cannot subscribe to controllers")
}

func TestControllerUnknownContext(t *testing.T) {
	loadErr(t, `
device D { action a; }
controller K { when provided Ghost do a on D; }
`, "unknown context Ghost")
}

func TestControllerRejectsNeverPublishingContext(t *testing.T) {
	loadErr(t, `
device D { source s as Integer; action a; }
context C as Integer { when periodic s from D <1 min> no publish; when required; }
controller K { when provided C do a on D; }
`, "never publishes")
}

func TestGetRequiresWhenRequired(t *testing.T) {
	loadErr(t, `
device D { source s as Integer; }
context A as Integer { when provided s from D always publish; }
context B as Integer { when provided s from D get A always publish; }
`, "requires A to declare 'when required;'")
}

func TestGetFromRequiredContextOK(t *testing.T) {
	m := load(t, `
device D { source s as Integer; }
context A as Integer { when periodic s from D <1 min> no publish; when required; }
context B as Integer { when provided s from D get A always publish; }
`)
	g := m.Contexts["B"].Interactions[0].Gets[0]
	if g.Kind != check.FromContext || g.Context.Name != "A" {
		t.Fatalf("get = %+v", g)
	}
}

func TestUnknownDeviceAndSource(t *testing.T) {
	loadErr(t, `context C as Integer { when provided s from Ghost always publish; }`,
		"unknown device Ghost")
	loadErr(t, `
device D { source s as Integer; }
context C as Integer { when provided missing from D always publish; }
`, "no source missing")
}

func TestSelfSubscriptionRejected(t *testing.T) {
	loadErr(t, `context C as Integer { when provided C always publish; }`,
		"subscribes to itself")
}

func TestProvidedBareNameMustBeContext(t *testing.T) {
	loadErr(t, `context C as Integer { when provided tick always publish; }`,
		"names no known context")
}

func TestGroupByMustNameDeviceAttribute(t *testing.T) {
	loadErr(t, `
device D { source s as Boolean; }
context C as Integer { when periodic s from D <1 min> grouped by lot always publish; }
`, "grouped by lot names no attribute")
}

func TestMapReduceRequiresGrouping(t *testing.T) {
	// `with map … reduce …` without `grouped by` is rejected at parse
	// level by grammar (grouping introduces the clause), so validate the
	// type agreement instead: map input type must equal source type.
	loadErr(t, `
device D { attribute a as String; source s as Boolean; }
context C as Integer { when periodic s from D <1 min> grouped by a with map as Integer reduce as Integer always publish; }
`, "map input type Integer does not match source D.s type Boolean")
}

func TestProvidedGroupedResolves(t *testing.T) {
	m := load(t, `
device D { attribute zone as String; source s as Boolean; }
context C as Integer {
	when provided s from D
	grouped by zone
	with map as Boolean reduce as Integer
	always publish;
}
`)
	in := m.Contexts["C"].Interactions[0]
	if in.Kind != check.Provided {
		t.Fatalf("kind = %v, want Provided", in.Kind)
	}
	if in.GroupBy == nil || in.GroupBy.Name != "zone" {
		t.Fatalf("GroupBy = %+v, want zone", in.GroupBy)
	}
	if in.MapType == nil || in.MapType.Kind != check.KindBoolean {
		t.Fatalf("MapType = %v, want Boolean", in.MapType)
	}
	if in.RedType == nil || in.RedType.Kind != check.KindInteger {
		t.Fatalf("RedType = %v, want Integer", in.RedType)
	}
}

func TestProvidedGroupedAttributeMustExist(t *testing.T) {
	loadErr(t, `
device D { source s as Boolean; }
context C as Integer { when provided s from D grouped by lot always publish; }
`, "grouped by lot names no attribute")
}

func TestProvidedGroupedMapTypeMustMatchSource(t *testing.T) {
	loadErr(t, `
device D { attribute a as String; source s as Boolean; }
context C as Integer {
	when provided s from D grouped by a with map as Integer reduce as Integer always publish;
}
`, "map input type Integer does not match source D.s type Boolean")
}

func TestEveryRequiresGroupingAndLongerWindow(t *testing.T) {
	loadErr(t, `
device D { attribute a as String; source s as Boolean; }
context C as Integer { when periodic s from D <10 min> grouped by a every <5 min> always publish; }
`, "shorter than period")
}

func TestInheritanceCycleDetected(t *testing.T) {
	loadErr(t, `
device A extends B { }
device B extends A { }
`, "inheritance cycle")
}

func TestExtendsUnknownDevice(t *testing.T) {
	loadErr(t, `device A extends Ghost { }`, "extends unknown device Ghost")
}

func TestDuplicateDeclarations(t *testing.T) {
	loadErr(t, `
device D { source s as Integer; }
device D { source t as Integer; }
`, "duplicate declaration of D")
}

// TestDuplicateDeclarationsAcrossKinds redeclares one name under every
// ordered pair of declaration kinds. Each pair must be a diagnostic, never a
// panic: a structure whose name a controller already took used to leave a
// nil Struct behind for field resolution to dereference.
func TestDuplicateDeclarationsAcrossKinds(t *testing.T) {
	decls := map[string]string{
		"device":      "device X { }",
		"context":     "context X as Integer { when provided s from D always publish; }",
		"controller":  "controller X { }",
		"structure":   "structure X { A as A; }",
		"enumeration": "enumeration X { A }",
	}
	for first, a := range decls {
		for second, b := range decls {
			t.Run(first+"/"+second, func(t *testing.T) {
				loadErr(t, "device D { source s as Integer; }\n"+a+"\n"+b, "duplicate declaration of X")
			})
		}
	}
	loadErr(t, "controller r{}structure r{A as A;}", "duplicate declaration of r")
}

func TestDuplicateMembersRejected(t *testing.T) {
	loadErr(t, `device D { source s as Integer; source s as Float; }`, "repeats source s")
	loadErr(t, `device D { attribute a as String; attribute a as String; }`, "repeats attribute a")
	loadErr(t, `device D { action a; action a; }`, "repeats action a")
	loadErr(t, `structure S { f as Integer; f as Float; }`, "repeats field f")
	loadErr(t, `enumeration E { A, A }`, "repeats value A")
}

func TestChildMayNotOverrideInheritedMemberSilently(t *testing.T) {
	// Overriding is allowed (object-oriented refinement): the child
	// declaration replaces the inherited one without error.
	m := load(t, `
device Base { source s as Integer; }
device Child extends Base { source s as Float; }
`)
	if got := m.Devices["Child"].Sources["s"].Type.Kind; got != check.KindFloat {
		t.Fatalf("override type = %v, want Float", got)
	}
}

func TestUnknownTypeReported(t *testing.T) {
	loadErr(t, `device D { source s as Whatever; }`, "unknown type Whatever")
}

func TestAttributeTypeRestrictions(t *testing.T) {
	loadErr(t, `
structure S { f as Integer; }
device D { attribute a as S; }
`, "attributes must be primitive or enumeration typed")
}

func TestMultipleErrorsAllReported(t *testing.T) {
	_, err := dsl.Load(`
device D { source s as Whatever; }
context C as Integer { when provided ghost from Nowhere always publish; }
controller K { when provided Missing do a on D; }
`)
	if err == nil {
		t.Fatal("want errors")
	}
	if !strings.Contains(err.Error(), "more errors") {
		t.Fatalf("expected aggregated error list, got %q", err)
	}
}

func TestModelNameAccessors(t *testing.T) {
	m := load(t, designs.Parking)
	devs := m.DeviceNames()
	if len(devs) != 5 || devs[0] != "CityEntrancePanel" {
		t.Fatalf("DeviceNames = %v", devs)
	}
	if got := m.ContextNames(); len(got) != 4 {
		t.Fatalf("ContextNames = %v", got)
	}
	if got := m.ControllerNames(); len(got) != 3 {
		t.Fatalf("ControllerNames = %v", got)
	}
	if len(m.DeclOrder) != len(m.Devices)+len(m.Contexts)+len(m.Controllers)+len(m.Structs)+len(m.Enums) {
		t.Fatalf("DeclOrder has %d entries", len(m.DeclOrder))
	}
}

func TestTypeStringAndEqual(t *testing.T) {
	arr := &check.Type{Kind: check.KindArray, Name: "Availability",
		Elem: &check.Type{Kind: check.KindStruct, Name: "Availability"}}
	if arr.String() != "Availability[]" {
		t.Fatalf("String = %q", arr.String())
	}
	if !arr.Equal(arr) {
		t.Fatal("Equal(self) = false")
	}
	other := &check.Type{Kind: check.KindStruct, Name: "Availability"}
	if arr.Equal(other) {
		t.Fatal("array equals scalar")
	}
	var nilT *check.Type
	if nilT.String() != "<nil>" || nilT.Equal(other) || !nilT.Equal(nil) {
		t.Fatal("nil Type handling wrong")
	}
}

func TestInteractionKindString(t *testing.T) {
	if check.Provided.String() != "when provided" ||
		check.Periodic.String() != "when periodic" ||
		check.Required.String() != "when required" ||
		!strings.Contains(check.InteractionKind(9).String(), "9") {
		t.Fatal("InteractionKind.String wrong")
	}
}

func TestMustLoadPanicsOnBadDesign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad did not panic")
		}
	}()
	dsl.MustLoad("device {")
}
