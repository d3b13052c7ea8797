// Command avionics runs an automated-pilot-style SCC loop, the paper's third
// cited domain (§I/§III, the design-driven avionics case study [9]). Flight
// parameters are sensed periodically, a flight-state context consolidates
// them, an altitude-hold context computes control-surface commands, and
// controllers actuate the surfaces — with QoS deadline monitoring wrapped
// around the actuators per the paper's non-functional annotations.
//
// The application logic is written against the framework generated by
// diaspecc from the avionics design (examples/avionics/gen).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/examples/avionics/gen"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// flightStateEstimator implements the FlightStateEstimator context: it
// fuses redundant air-data computers (grouped by position) into one state
// record served on demand.
type flightStateEstimator struct {
	mu    sync.Mutex
	state gen.FlightState
}

func (f *flightStateEstimator) OnPeriodicAirspeed(airspeedByPosition map[gen.AdcPositionEnum][]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Average the redundant channels.
	n, sum := 0, 0.0
	for _, vs := range airspeedByPosition {
		for _, v := range vs {
			sum += v
			n++
		}
	}
	if n > 0 {
		f.state.Airspeed = sum / float64(n)
	}
	return nil
}

func (f *flightStateEstimator) OnRequired() (gen.FlightState, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state, nil
}

func (f *flightStateEstimator) observeAttitude(pitch, roll float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.state.Pitch, f.state.Roll = pitch, roll
}

func (f *flightStateEstimator) observeAltitude(alt float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.state.Altitude = alt
}

// attitudeMonitor implements the AttitudeMonitor context: one averaged angle
// per axis, published every second as [pitch, roll].
type attitudeMonitor struct {
	est *flightStateEstimator
	adc *devsim.AvionicsSuite
}

func (m *attitudeMonitor) OnPeriodicAngle(angleByAxis map[gen.AxisEnum][]float64) ([]float64, error) {
	avg := func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	pitch := avg(angleByAxis[gen.AxisEnumPITCH])
	roll := avg(angleByAxis[gen.AxisEnumROLL])
	m.est.observeAttitude(pitch, roll)
	// Feed the altitude observation too (in a richer design this would be
	// a separate periodic clause on the altitude source).
	if alt, err := m.adc.ADCs[0].Query("altitude"); err == nil {
		m.est.observeAltitude(alt.(float64))
	}
	return []float64{pitch, roll}, nil
}

// altitudeHold implements the AltitudeHold context: a PD law from altitude
// error and pitch to an elevator command, plus roll damping on the ailerons.
type altitudeHold struct{}

func (altitudeHold) OnAttitudeMonitor(angles []float64, discover *gen.AltitudeHoldAttitudeMonitorDiscover) ([]gen.SurfaceCommand, bool, error) {
	state, err := discover.FlightStateEstimator()
	if err != nil {
		return nil, false, err
	}
	target, err := discover.TargetAltitudeFromAutopilotPanel()
	if err != nil {
		return nil, false, err
	}
	altErr := target - state.Altitude
	pitchCmd := clamp(altErr/400, -4, 4) // desired pitch, degrees
	// Gentle gains: the loop closes once per second, so the discrete
	// update must stay contractive (|1 - 0.5 - 2*k| < 1 for the pitch
	// dynamics of the simulated airframe).
	elevator := clamp(0.2*(pitchCmd-state.Pitch), -10, 10)
	aileron := clamp(-0.2*state.Roll, -10, 10)
	return []gen.SurfaceCommand{
		{Surface: gen.SurfaceEnumELEVATOR, Degrees: elevator},
		{Surface: gen.SurfaceEnumAILERON_L, Degrees: aileron},
		{Surface: gen.SurfaceEnumAILERON_R, Degrees: -aileron},
	}, true, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// envelopeProtection implements the EnvelopeProtection context: it warns
// when pitch leaves the safe envelope.
type envelopeProtection struct{}

func (envelopeProtection) OnAttitudeMonitor(angles []float64, discover *gen.EnvelopeProtectionAttitudeMonitorDiscover) (string, bool, error) {
	state, err := discover.FlightStateEstimator()
	if err != nil {
		return "", false, err
	}
	if math.Abs(state.Pitch) > 12 {
		return fmt.Sprintf("PITCH LIMIT: %.1f deg", state.Pitch), true, nil
	}
	return "", false, nil
}

// surfaceActuation implements the SurfaceActuation controller.
type surfaceActuation struct{}

func (surfaceActuation) OnAltitudeHold(cmds []gen.SurfaceCommand, discover *gen.SurfaceActuationDiscover) error {
	for _, cmd := range cmds {
		if err := discover.ControlSurfaces().WhereSurface(cmd.Surface).Deflect(cmd.Degrees); err != nil {
			return err
		}
	}
	return nil
}

// crewAlerting implements the CrewAlerting controller.
type crewAlerting struct{}

func (crewAlerting) OnEnvelopeProtection(msg string, discover *gen.CrewAlertingDiscover) error {
	return discover.AutopilotPanels().Annunciate(msg)
}

func main() {
	duration := flag.Duration("duration", 3*time.Minute, "virtual flight time (altitude capture is asserted only for full-length flights)")
	flag.Parse()
	if err := run(*duration); err != nil {
		fmt.Fprintln(os.Stderr, "avionics:", err)
		os.Exit(1)
	}
}

func run(duration time.Duration) error {
	seconds := int(duration / time.Second)
	if seconds < 1 {
		seconds = 1
	}
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 12, 0, 0, 0, time.UTC))
	model, err := dsl.Load(designs.Avionics)
	if err != nil {
		return err
	}
	rt := runtime.New(model, runtime.WithClock(vc),
		runtime.WithTuning(runtime.AppConfig{OnError: func(ce runtime.ComponentError) {
			fmt.Fprintln(os.Stderr, "runtime error:", ce)
		}}))
	defer rt.Stop()
	gen.RegisterWireTypes()

	// The aircraft starts 800 ft below the autopilot target of 30000 ft.
	aircraft := devsim.NewFlightModel(29200, 250, 7)
	suite := devsim.NewAvionicsSuite(aircraft, vc.Now)

	// QoS: actuation deadlines on control surfaces (paper §III's QoS
	// annotations [15]); violations are recorded, not fatal.
	monitor := qos.NewMonitor()
	for _, adc := range suite.ADCs {
		if err := rt.BindDevice(adc); err != nil {
			return err
		}
	}
	for _, att := range suite.Attitude {
		if err := rt.BindDevice(att); err != nil {
			return err
		}
	}
	for _, surf := range suite.Surfaces {
		if err := rt.BindDevice(qos.NewDeadline(surf, 50*time.Millisecond, monitor, vc.Now)); err != nil {
			return err
		}
	}
	if err := rt.BindDevice(suite.Panel); err != nil {
		return err
	}

	est := &flightStateEstimator{}
	if err := gen.BindFlightStateEstimator(rt, est); err != nil {
		return err
	}
	if err := gen.BindAttitudeMonitor(rt, &attitudeMonitor{est: est, adc: suite}); err != nil {
		return err
	}
	if err := gen.BindAltitudeHold(rt, altitudeHold{}); err != nil {
		return err
	}
	if err := gen.BindEnvelopeProtection(rt, envelopeProtection{}); err != nil {
		return err
	}
	if err := gen.BindSurfaceActuation(rt, surfaceActuation{}); err != nil {
		return err
	}
	if err := gen.BindCrewAlerting(rt, crewAlerting{}); err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}

	fmt.Println("avionics altitude hold (paper's third domain) — target 30000 ft from 29200 ft")
	fmt.Printf("%-6s %10s %9s %7s\n", "t", "altitude", "airspeed", "pitch")
	for s := 1; s <= seconds; s++ {
		aircraft.Step(time.Second)
		before := rt.Stats().PeriodicPolls
		vc.Advance(time.Second)
		waitForPolls(rt, before)
		if s%20 == 0 {
			alt, as, pitch, _ := aircraft.State()
			fmt.Printf("%3ds   %10.0f %9.1f %7.2f\n", s, alt, as, pitch)
		}
	}
	alt, _, _, _ := aircraft.State()
	if seconds >= 180 {
		// Shorter (smoke) flights have not had time to capture the target.
		if math.Abs(alt-30000) > 250 {
			return fmt.Errorf("altitude hold failed: %0.f ft vs target 30000 ft", alt)
		}
		fmt.Printf("captured target: %.0f ft (|error| <= 250 ft)\n", alt)
	} else {
		fmt.Printf("short flight: %.0f ft after %ds (capture asserted at 180s+)\n", alt, seconds)
	}
	st := rt.Stats()
	fmt.Printf("done: %d polls, %d actuations, %d QoS violations, %d errors\n",
		st.PeriodicPolls, st.Actuations, monitor.Count(), st.Errors)
	return nil
}

// waitForPolls blocks until both 1-second pollers complete another round.
func waitForPolls(rt *runtime.Runtime, before uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Stats().PeriodicPolls >= before+2 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
