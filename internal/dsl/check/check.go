// Package check performs semantic analysis of a parsed DiaSpec design and
// produces a resolved Model consumed by the runtime and the code generator.
//
// The analysis enforces the paper's architectural rules: the SCC paradigm
// ("contexts can invoke other contexts or controllers, but controllers
// cannot invoke context components", §IV.1), device taxonomy inheritance
// (§III), the three data-delivery models and their clause constraints, and
// the MapReduce typing of `grouped by … with map … reduce …` (§IV.2).
package check

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dsl/ast"
	"repro/internal/dsl/token"
)

// Error is a positioned semantic error.
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("check error at %s: %s", e.Pos, e.Msg) }

// Errors is a list of semantic errors; checking reports every error it can
// find rather than stopping at the first.
type Errors []*Error

// Error implements error.
func (es Errors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", es[0].Error(), len(es)-1)
}

// TypeKind classifies resolved types.
type TypeKind int

// Type kinds.
const (
	KindInteger TypeKind = iota + 1
	KindFloat
	KindBoolean
	KindString
	KindStruct
	KindEnum
	KindArray
)

// Type is a resolved DiaSpec type.
type Type struct {
	Kind TypeKind
	// Name is the declared name for struct and enum types, or the
	// primitive spelling (Integer, Float, Boolean, String).
	Name string
	// Elem is the element type of an array.
	Elem *Type
}

// String renders the type in DiaSpec syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.Kind == KindArray {
		return t.Elem.String() + "[]"
	}
	return t.Name
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Name != o.Name {
		return false
	}
	if t.Kind == KindArray {
		return t.Elem.Equal(o.Elem)
	}
	return true
}

// Attribute is a resolved device attribute.
type Attribute struct {
	Name string
	Type *Type
	// Inherited reports the attribute came from a taxonomy ancestor.
	Inherited bool
}

// Source is a resolved device source facet.
type Source struct {
	Name      string
	Type      *Type
	IndexName string
	IndexType *Type // nil when not indexed
	Inherited bool
}

// Action is a resolved device action facet.
type Action struct {
	Name      string
	Params    []Param
	Inherited bool
}

// Param is a resolved action parameter.
type Param struct {
	Name string
	Type *Type
}

// Device is a resolved device declaration with the flattened member set of
// its taxonomy chain.
type Device struct {
	Name string
	// Extends is the direct parent, empty for roots.
	Extends string
	// Ancestors lists the inheritance chain from direct parent to root.
	Ancestors []string
	// Attributes, Sources and Actions include inherited members.
	Attributes map[string]*Attribute
	Sources    map[string]*Source
	Actions    map[string]*Action
	Decl       *ast.DeviceDecl
}

// Kinds returns the device name followed by its ancestors — the registry
// `Kinds` set for taxonomy-aware discovery.
func (d *Device) Kinds() []string {
	return append([]string{d.Name}, d.Ancestors...)
}

// SubscriptionKind distinguishes the resolved meaning of an interaction
// trigger or get target.
type SubscriptionKind int

// Subscription kinds.
const (
	// FromDeviceSource subscribes to a device source facet.
	FromDeviceSource SubscriptionKind = iota + 1
	// FromContext subscribes to another context's published output.
	FromContext
)

// Get is a resolved query-driven pull.
type Get struct {
	Kind SubscriptionKind
	// Device and Source identify the facet for FromDeviceSource.
	Device *Device
	Source *Source
	// Context is the pulled context for FromContext.
	Context *Context
}

// Target names what the get pulls, for diagnostics.
func (g *Get) Target() string {
	if g.Kind == FromDeviceSource {
		return g.Device.Name + "." + g.Source.Name
	}
	return g.Context.Name
}

// Interaction is a resolved context interaction.
type Interaction struct {
	// One of the three delivery models; Required marks `when required`.
	Kind InteractionKind

	// Trigger fields (Provided and Periodic).
	TriggerKind   SubscriptionKind
	TriggerDevice *Device  // FromDeviceSource
	TriggerSource *Source  // FromDeviceSource
	TriggerCtx    *Context // FromContext

	// Periodic-only field.
	Period time.Duration
	// Grouping fields (Periodic, and Provided device sources — the
	// event-driven form maintains a continuous per-event aggregate).
	GroupBy *Attribute // nil when not grouped
	Every   time.Duration
	MapType *Type // nil when no MapReduce clause
	RedType *Type

	Gets    []*Get
	Publish ast.PublishMode

	Decl ast.Interaction
}

// InteractionKind enumerates the paper's data-delivery models plus the
// pull-only marker.
type InteractionKind int

// Interaction kinds: the paper's three data-delivery models (§IV
// "delivering data": event-driven, periodic, query-driven) plus Required,
// which marks the context itself as query-driven for its clients.
const (
	Provided InteractionKind = iota + 1 // event driven
	Periodic                            // periodic
	Required                            // pull-only (query driven)
)

// String implements fmt.Stringer.
func (k InteractionKind) String() string {
	switch k {
	case Provided:
		return "when provided"
	case Periodic:
		return "when periodic"
	case Required:
		return "when required"
	default:
		return fmt.Sprintf("InteractionKind(%d)", int(k))
	}
}

// Context is a resolved context component.
type Context struct {
	Name string
	Type *Type
	// Interactions preserves declaration order.
	Interactions []*Interaction
	// Required reports whether the context declares `when required`.
	Required bool
	// Publishes reports whether any interaction may publish.
	Publishes bool
	// Subscribers lists components subscribed to this context's output;
	// filled during linking for runtime wiring.
	Subscribers []string
	Decl        *ast.ContextDecl
}

// ControllerAction is a resolved `do … on …` operation.
type ControllerAction struct {
	Device *Device
	Action *Action
}

// ControllerWhen is a resolved controller interaction.
type ControllerWhen struct {
	Context *Context
	Actions []ControllerAction
}

// Controller is a resolved controller component.
type Controller struct {
	Name         string
	Interactions []*ControllerWhen
	Decl         *ast.ControllerDecl
}

// Struct is a resolved structure declaration.
type Struct struct {
	Name   string
	Fields []Param
}

// Enum is a resolved enumeration declaration.
type Enum struct {
	Name   string
	Values []string
}

// Model is a fully resolved design.
type Model struct {
	Devices     map[string]*Device
	Contexts    map[string]*Context
	Controllers map[string]*Controller
	Structs     map[string]*Struct
	Enums       map[string]*Enum
	// DeclOrder lists top-level declaration names in source order, for
	// deterministic code generation.
	DeclOrder []string
}

// DeviceNames returns device names sorted alphabetically.
func (m *Model) DeviceNames() []string { return sortedKeys(m.Devices) }

// ContextNames returns context names sorted alphabetically.
func (m *Model) ContextNames() []string { return sortedKeys(m.Contexts) }

// ControllerNames returns controller names sorted alphabetically.
func (m *Model) ControllerNames() []string { return sortedKeys(m.Controllers) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type checker struct {
	design *ast.Design
	m      *Model
	errs   Errors
}

// Check resolves and validates a parsed design. On failure it returns an
// Errors value listing every detected problem.
func Check(design *ast.Design) (*Model, error) {
	c := &checker{
		design: design,
		m: &Model{
			Devices:     make(map[string]*Device),
			Contexts:    make(map[string]*Context),
			Controllers: make(map[string]*Controller),
			Structs:     make(map[string]*Struct),
			Enums:       make(map[string]*Enum),
		},
	}
	c.collectDecls()
	c.resolveDeviceHierarchy()
	c.resolveContexts()
	c.resolveControllers()
	c.linkSubscribers()
	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.m, nil
}

func (c *checker) errf(pos token.Position, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collectDecls() {
	seen := make(map[string]token.Position)
	// structs holds the accepted structure declarations: a redeclared name
	// (of any kind) is reported and skipped, so it has no Struct to fill.
	var structs []*ast.StructureDecl
	for _, decl := range c.design.Decls {
		name := decl.DeclName()
		if prev, dup := seen[name]; dup {
			c.errf(decl.Pos(), "duplicate declaration of %s (previously at %s)", name, prev)
			continue
		}
		seen[name] = decl.Pos()
		c.m.DeclOrder = append(c.m.DeclOrder, name)
		switch d := decl.(type) {
		case *ast.DeviceDecl:
			c.m.Devices[d.Name] = &Device{
				Name:       d.Name,
				Extends:    d.Extends,
				Attributes: make(map[string]*Attribute),
				Sources:    make(map[string]*Source),
				Actions:    make(map[string]*Action),
				Decl:       d,
			}
		case *ast.ContextDecl:
			c.m.Contexts[d.Name] = &Context{Name: d.Name, Decl: d}
		case *ast.ControllerDecl:
			c.m.Controllers[d.Name] = &Controller{Name: d.Name, Decl: d}
		case *ast.StructureDecl:
			c.m.Structs[d.Name] = &Struct{Name: d.Name}
			structs = append(structs, d)
		case *ast.EnumerationDecl:
			vals := make(map[string]bool, len(d.Values))
			for _, v := range d.Values {
				if vals[v] {
					c.errf(d.Pos(), "enumeration %s repeats value %s", d.Name, v)
				}
				vals[v] = true
			}
			c.m.Enums[d.Name] = &Enum{Name: d.Name, Values: append([]string(nil), d.Values...)}
		}
	}
	// Struct fields may reference other structs/enums, so resolve after
	// all names are known.
	for _, s := range structs {
		st := c.m.Structs[s.Name]
		fieldSeen := make(map[string]bool)
		for _, f := range s.Fields {
			if fieldSeen[f.Name] {
				c.errf(s.Pos(), "structure %s repeats field %s", s.Name, f.Name)
				continue
			}
			fieldSeen[f.Name] = true
			st.Fields = append(st.Fields, Param{Name: f.Name, Type: c.resolveType(f.Type)})
		}
	}
}

// resolveType maps a syntactic type reference to a resolved Type, reporting
// unknown names.
func (c *checker) resolveType(ref ast.TypeRef) *Type {
	var base *Type
	switch ref.Name {
	case "Integer":
		base = &Type{Kind: KindInteger, Name: "Integer"}
	case "Float":
		base = &Type{Kind: KindFloat, Name: "Float"}
	case "Boolean":
		base = &Type{Kind: KindBoolean, Name: "Boolean"}
	case "String":
		base = &Type{Kind: KindString, Name: "String"}
	default:
		if _, ok := c.m.Structs[ref.Name]; ok {
			base = &Type{Kind: KindStruct, Name: ref.Name}
		} else if _, ok := c.m.Enums[ref.Name]; ok {
			base = &Type{Kind: KindEnum, Name: ref.Name}
		} else {
			c.errf(ref.TPos, "unknown type %s", ref.Name)
			base = &Type{Kind: KindString, Name: ref.Name} // error recovery
		}
	}
	if ref.IsArray {
		return &Type{Kind: KindArray, Name: base.Name, Elem: base}
	}
	return base
}

func (c *checker) resolveDeviceHierarchy() {
	// Detect cycles and compute ancestor chains.
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) bool
	visit = func(name string) bool {
		switch state[name] {
		case 1:
			return false // cycle
		case 2:
			return true
		}
		state[name] = 1
		dev := c.m.Devices[name]
		if dev.Extends != "" {
			parent, ok := c.m.Devices[dev.Extends]
			if !ok {
				c.errf(dev.Decl.Pos(), "device %s extends unknown device %s", name, dev.Extends)
			} else if !visit(parent.Name) {
				c.errf(dev.Decl.Pos(), "device inheritance cycle through %s", name)
			} else {
				dev.Ancestors = append([]string{parent.Name}, parent.Ancestors...)
				// Inherit members.
				for _, a := range parent.Attributes {
					inherited := *a
					inherited.Inherited = true
					dev.Attributes[a.Name] = &inherited
				}
				for _, s := range parent.Sources {
					inherited := *s
					inherited.Inherited = true
					dev.Sources[s.Name] = &inherited
				}
				for _, a := range parent.Actions {
					inherited := *a
					inherited.Inherited = true
					dev.Actions[a.Name] = &inherited
				}
			}
		}
		c.resolveDeviceMembers(dev)
		state[name] = 2
		return true
	}
	for _, name := range sortedKeys(c.m.Devices) {
		visit(name)
	}
}

func (c *checker) resolveDeviceMembers(dev *Device) {
	d := dev.Decl
	for _, a := range d.Attributes {
		if prev, ok := dev.Attributes[a.Name]; ok && !prev.Inherited {
			c.errf(a.APos, "device %s repeats attribute %s", dev.Name, a.Name)
			continue
		}
		typ := c.resolveType(a.Type)
		if typ.Kind == KindStruct || typ.Kind == KindArray {
			c.errf(a.APos, "device %s attribute %s: attributes must be primitive or enumeration typed, not %s", dev.Name, a.Name, typ)
		}
		dev.Attributes[a.Name] = &Attribute{Name: a.Name, Type: typ}
	}
	for _, s := range d.Sources {
		if prev, ok := dev.Sources[s.Name]; ok && !prev.Inherited {
			c.errf(s.SPos, "device %s repeats source %s", dev.Name, s.Name)
			continue
		}
		src := &Source{Name: s.Name, Type: c.resolveType(s.Type)}
		if s.IndexName != "" {
			src.IndexName = s.IndexName
			src.IndexType = c.resolveType(s.IndexType)
		}
		dev.Sources[s.Name] = src
	}
	for _, a := range d.Actions {
		if prev, ok := dev.Actions[a.Name]; ok && !prev.Inherited {
			c.errf(a.APos, "device %s repeats action %s", dev.Name, a.Name)
			continue
		}
		act := &Action{Name: a.Name}
		for _, p := range a.Params {
			act.Params = append(act.Params, Param{Name: p.Name, Type: c.resolveType(p.Type)})
		}
		dev.Actions[a.Name] = act
	}
}

func (c *checker) resolveContexts() {
	for _, name := range sortedKeys(c.m.Contexts) {
		ctx := c.m.Contexts[name]
		ctx.Type = c.resolveType(ctx.Decl.Type)
		for _, in := range ctx.Decl.Interactions {
			ri := c.resolveInteraction(ctx, in)
			if ri == nil {
				continue
			}
			ctx.Interactions = append(ctx.Interactions, ri)
			if ri.Kind == Required {
				ctx.Required = true
			}
			if ri.Kind != Required && ri.Publish != ast.NoPublish {
				ctx.Publishes = true
			}
		}
	}
}

func (c *checker) resolveInteraction(ctx *Context, in ast.Interaction) *Interaction {
	switch w := in.(type) {
	case *ast.WhenProvided:
		ri := &Interaction{Kind: Provided, Publish: w.Publish, Decl: in}
		if w.From != "" {
			dev, src := c.lookupSource(w.From, w.Source, w.Pos(), ctx.Name)
			if dev == nil {
				return nil
			}
			ri.TriggerKind = FromDeviceSource
			ri.TriggerDevice, ri.TriggerSource = dev, src
			// Event-driven grouping: each event updates a continuous
			// per-group aggregate, typed exactly like the periodic clause.
			if w.GroupBy != "" {
				attr, ok := dev.Attributes[w.GroupBy]
				if !ok {
					c.errf(w.Pos(), "context %s: grouped by %s names no attribute of device %s", ctx.Name, w.GroupBy, dev.Name)
				} else {
					ri.GroupBy = attr
				}
			}
			if w.MapType != nil {
				if w.GroupBy == "" {
					c.errf(w.Pos(), "context %s: 'with map … reduce …' requires 'grouped by'", ctx.Name)
				}
				ri.MapType = c.resolveType(*w.MapType)
				ri.RedType = c.resolveType(*w.RedType)
				if src != nil && !ri.MapType.Equal(src.Type) {
					c.errf(w.Pos(), "context %s: map input type %s does not match source %s.%s type %s",
						ctx.Name, ri.MapType, dev.Name, src.Name, src.Type)
				}
			}
		} else {
			pub, ok := c.m.Contexts[w.Source]
			if !ok {
				c.errf(w.Pos(), "context %s: 'when provided %s' names no known context (add 'from <Device>' for a device source)", ctx.Name, w.Source)
				return nil
			}
			if pub == ctx {
				c.errf(w.Pos(), "context %s subscribes to itself", ctx.Name)
				return nil
			}
			ri.TriggerKind = FromContext
			ri.TriggerCtx = pub
		}
		ri.Gets = c.resolveGets(ctx, w.Gets)
		return ri

	case *ast.WhenPeriodic:
		ri := &Interaction{Kind: Periodic, Publish: w.Publish, Period: w.Period, Every: w.Every, Decl: in}
		dev, src := c.lookupSource(w.From, w.Source, w.Pos(), ctx.Name)
		if dev == nil {
			return nil
		}
		ri.TriggerKind = FromDeviceSource
		ri.TriggerDevice, ri.TriggerSource = dev, src
		if w.GroupBy != "" {
			attr, ok := dev.Attributes[w.GroupBy]
			if !ok {
				c.errf(w.Pos(), "context %s: grouped by %s names no attribute of device %s", ctx.Name, w.GroupBy, dev.Name)
			} else {
				ri.GroupBy = attr
			}
		}
		if w.Every > 0 && w.GroupBy == "" {
			c.errf(w.Pos(), "context %s: 'every' aggregation requires 'grouped by'", ctx.Name)
		}
		if w.Every > 0 && w.Every < w.Period {
			c.errf(w.Pos(), "context %s: 'every' window %v shorter than period %v", ctx.Name, w.Every, w.Period)
		}
		if w.MapType != nil {
			if w.GroupBy == "" {
				c.errf(w.Pos(), "context %s: 'with map … reduce …' requires 'grouped by'", ctx.Name)
			}
			ri.MapType = c.resolveType(*w.MapType)
			ri.RedType = c.resolveType(*w.RedType)
			if src != nil && !ri.MapType.Equal(src.Type) {
				c.errf(w.Pos(), "context %s: map input type %s does not match source %s.%s type %s",
					ctx.Name, ri.MapType, dev.Name, src.Name, src.Type)
			}
		}
		ri.Gets = c.resolveGets(ctx, w.Gets)
		return ri

	case *ast.WhenRequired:
		return &Interaction{Kind: Required, Publish: ast.NoPublish, Decl: in}

	default:
		c.errf(in.Pos(), "context %s: unknown interaction kind %T", ctx.Name, in)
		return nil
	}
}

func (c *checker) lookupSource(devName, srcName string, pos token.Position, ctxName string) (*Device, *Source) {
	dev, ok := c.m.Devices[devName]
	if !ok {
		c.errf(pos, "context %s references unknown device %s", ctxName, devName)
		return nil, nil
	}
	src, ok := dev.Sources[srcName]
	if !ok {
		c.errf(pos, "context %s: device %s has no source %s", ctxName, devName, srcName)
		return nil, nil
	}
	return dev, src
}

func (c *checker) resolveGets(ctx *Context, gets []ast.GetClause) []*Get {
	var out []*Get
	for _, g := range gets {
		if g.From != "" {
			dev, src := c.lookupSource(g.From, g.Name, g.GPos, ctx.Name)
			if dev == nil {
				continue
			}
			out = append(out, &Get{Kind: FromDeviceSource, Device: dev, Source: src})
			continue
		}
		target, ok := c.m.Contexts[g.Name]
		if !ok {
			c.errf(g.GPos, "context %s: 'get %s' names no known context (add 'from <Device>' for a device source)", ctx.Name, g.Name)
			continue
		}
		// The target context must be pull-capable: `when required`
		// (Figure 8: ParkingSuggestion gets ParkingUsagePattern, which
		// declares `when required;`).
		if !hasRequired(target.Decl) {
			c.errf(g.GPos, "context %s: 'get %s' requires %s to declare 'when required;'", ctx.Name, g.Name, g.Name)
			continue
		}
		out = append(out, &Get{Kind: FromContext, Context: target})
	}
	return out
}

func hasRequired(decl *ast.ContextDecl) bool {
	for _, in := range decl.Interactions {
		if _, ok := in.(*ast.WhenRequired); ok {
			return true
		}
	}
	return false
}

func (c *checker) resolveControllers() {
	for _, name := range sortedKeys(c.m.Controllers) {
		ctrl := c.m.Controllers[name]
		for _, w := range ctrl.Decl.Interactions {
			// SCC conformance: controllers are fed by contexts only;
			// naming a device or another controller here is an
			// architecture violation (paper Figure 2).
			ctx, ok := c.m.Contexts[w.Context]
			if !ok {
				if _, isDev := c.m.Devices[w.Context]; isDev {
					c.errf(w.WPos, "controller %s: SCC violation: controllers subscribe to contexts, not devices (%s)", ctrl.Name, w.Context)
				} else if _, isCtrl := c.m.Controllers[w.Context]; isCtrl {
					c.errf(w.WPos, "controller %s: SCC violation: controllers cannot subscribe to controllers (%s)", ctrl.Name, w.Context)
				} else {
					c.errf(w.WPos, "controller %s subscribes to unknown context %s", ctrl.Name, w.Context)
				}
				continue
			}
			if !contextMayPublish(ctx) {
				c.errf(w.WPos, "controller %s subscribes to context %s, which never publishes", ctrl.Name, ctx.Name)
			}
			rw := &ControllerWhen{Context: ctx}
			for _, da := range w.Actions {
				dev, ok := c.m.Devices[da.Device]
				if !ok {
					c.errf(da.DPos, "controller %s: 'do %s on %s' names unknown device %s", ctrl.Name, da.Action, da.Device, da.Device)
					continue
				}
				act, ok := dev.Actions[da.Action]
				if !ok {
					c.errf(da.DPos, "controller %s: device %s has no action %s", ctrl.Name, dev.Name, da.Action)
					continue
				}
				rw.Actions = append(rw.Actions, ControllerAction{Device: dev, Action: act})
			}
			ctrl.Interactions = append(ctrl.Interactions, rw)
		}
	}
}

func contextMayPublish(ctx *Context) bool {
	for _, in := range ctx.Decl.Interactions {
		switch w := in.(type) {
		case *ast.WhenProvided:
			if w.Publish != ast.NoPublish {
				return true
			}
		case *ast.WhenPeriodic:
			if w.Publish != ast.NoPublish {
				return true
			}
		}
	}
	return false
}

// linkSubscribers records, on every context, which components subscribe to
// its published values. The runtime uses this to route publications.
func (c *checker) linkSubscribers() {
	for _, name := range sortedKeys(c.m.Contexts) {
		ctx := c.m.Contexts[name]
		for _, in := range ctx.Interactions {
			if in.TriggerKind == FromContext && in.TriggerCtx != nil {
				in.TriggerCtx.Subscribers = append(in.TriggerCtx.Subscribers, ctx.Name)
			}
		}
	}
	for _, name := range sortedKeys(c.m.Controllers) {
		ctrl := c.m.Controllers[name]
		for _, w := range ctrl.Interactions {
			w.Context.Subscribers = append(w.Context.Subscribers, ctrl.Name)
		}
	}
	for _, name := range sortedKeys(c.m.Contexts) {
		sort.Strings(c.m.Contexts[name].Subscribers)
	}
}
