// Command cookermonitor runs the paper's small-scale application (Figures 3,
// 5, 7, 9): home safety for older adults. It detects when the cooker stays
// on beyond a time threshold, notifies the user on a TV prompter, and turns
// the cooker off remotely when the user confirms.
//
// All application logic below is written against the framework generated by
// diaspecc from the cooker design (examples/cookermonitor/gen); everything
// else — subscriptions, discovery, delivery, actuation conformance — is the
// generated framework plus the runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/examples/cookermonitor/gen"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// defaultDuration is the virtual length of the simulated evening; the
// alert threshold is five seconds shorter so the scenario always completes
// within it.
const defaultDuration = 125 * time.Second

// alert implements the Alert context: it counts consecutive seconds of
// non-zero cooker consumption and publishes once the threshold is crossed.
type alert struct {
	threshold int
	onSeconds int
}

func (a *alert) OnTickSecondFromClock(tickSecond int, discover *gen.AlertTickSecondFromClockDiscover) (int, bool, error) {
	consumption, err := discover.ConsumptionFromCooker()
	if err != nil {
		return 0, false, err
	}
	if consumption > 0 {
		a.onSeconds++
	} else {
		a.onSeconds = 0
	}
	if a.onSeconds > 0 && a.onSeconds%a.threshold == 0 {
		return a.onSeconds, true, nil
	}
	return 0, false, nil
}

// notify implements the Notify controller: it turns an alert into a question
// on every bound prompter.
type notify struct{}

func (notify) OnAlert(onSeconds int, discover *gen.NotifyDiscover) error {
	question := fmt.Sprintf("The cooker has been on for %ds. Turn it off?", onSeconds)
	return discover.Prompters().AskQuestion(question)
}

// remoteTurnOff implements the RemoteTurnOff context: when the user answers
// "yes" and the cooker is still on, it publishes a confirmation.
type remoteTurnOff struct{}

func (remoteTurnOff) OnAnswerFromPrompter(answer, questionID string, discover *gen.RemoteTurnOffAnswerFromPrompterDiscover) (bool, bool, error) {
	if answer != "yes" {
		return false, false, nil
	}
	consumption, err := discover.ConsumptionFromCooker()
	if err != nil {
		return false, false, err
	}
	if consumption == 0 {
		return false, false, nil // already off; nothing to do
	}
	return true, true, nil
}

// turnOff implements the TurnOff controller.
type turnOff struct{}

func (turnOff) OnRemoteTurnOff(confirmed bool, discover *gen.TurnOffDiscover) error {
	if !confirmed {
		return nil
	}
	return discover.Cookers().Off()
}

func main() {
	duration := flag.Duration("duration", defaultDuration, "virtual evening length (alert threshold is 5s shorter)")
	flag.Parse()
	if err := run(*duration); err != nil {
		fmt.Fprintln(os.Stderr, "cookermonitor:", err)
		os.Exit(1)
	}
}

func run(duration time.Duration) error {
	seconds := int(duration / time.Second)
	threshold := seconds - 5
	if threshold < 1 {
		threshold = 1
	}
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 18, 30, 0, 0, time.UTC))
	model, err := dsl.Load(designs.Cooker)
	if err != nil {
		return err
	}
	rt := runtime.New(model, runtime.WithClock(vc),
		runtime.WithTuning(runtime.AppConfig{OnError: func(ce runtime.ComponentError) {
			fmt.Fprintln(os.Stderr, "runtime error:", ce)
		}}))
	defer rt.Stop()
	gen.RegisterWireTypes()

	// Simulated home: a clock, the cooker, a TV prompter whose user
	// always confirms turn-off requests.
	clock := devsim.NewClockDevice("clock-1", vc)
	cooker := devsim.NewCookerDevice("cooker-1", 42, vc.Now)
	prompter := devsim.NewPrompterDevice("tv-livingroom", vc.Now)
	prompter.AnswerWith(func(question string) (string, bool) {
		fmt.Printf("  [tv] %q -> user answers: yes\n", question)
		return "yes", true
	})
	if err := rt.BindDevice(clock); err != nil {
		return err
	}
	if err := rt.BindDevice(cooker); err != nil {
		return err
	}
	if err := rt.BindDevice(prompter); err != nil {
		return err
	}

	// Application logic against the generated framework.
	if err := gen.BindAlert(rt, &alert{threshold: threshold}); err != nil {
		return err
	}
	if err := gen.BindNotify(rt, notify{}); err != nil {
		return err
	}
	if err := gen.BindRemoteTurnOff(rt, remoteTurnOff{}); err != nil {
		return err
	}
	if err := gen.BindTurnOff(rt, turnOff{}); err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	clock.Run()
	defer clock.Stop()

	fmt.Println("cooker monitoring (paper Figures 3, 5, 7) — virtual evening at 18:30")
	fmt.Println("  [home] dinner starts; the cooker is turned on and forgotten")
	if err := cooker.Invoke("On"); err != nil {
		return err
	}

	// Advance one virtual second at a time so every tick is delivered,
	// yielding briefly to let asynchronous deliveries run.
	for s := 0; s < seconds; s++ {
		vc.Advance(time.Second)
		time.Sleep(200 * time.Microsecond)
		if !cooker.IsOn() {
			break
		}
	}

	// Let in-flight deliveries settle.
	deadline := time.Now().Add(5 * time.Second)
	for cooker.IsOn() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if cooker.IsOn() {
		return fmt.Errorf("scenario failed: cooker still on after confirmation")
	}
	fmt.Println("  [home] cooker turned off remotely after user confirmation")
	st := rt.Stats()
	fmt.Printf("done: %d context triggers, %d controller triggers, %d actuations, %d errors\n",
		st.ContextTriggers, st.ControllerTriggers, st.Actuations, st.Errors)
	return nil
}
