// Command powerchief is the reproduction's one operator binary: the
// discrete-event simulator's front end (run), the paper's §7 prototype — a
// Command Center plus one service per stage (center, stage) — and the fleet
// level above it (fleet, node). `powerchief <subcommand> -h` lists a
// subcommand's flags; the flag groups subcommands share are declared once,
// in flags.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// commands is the subcommand table. Each runs over its own flag set until
// it or ctx is done, and returns once every goroutine it started has exited.
var commands = []struct {
	name, summary string
	run           func(ctx context.Context, args []string, stdout io.Writer) error
}{
	{"run", "run one scenario on the discrete-event engine and print its metrics", runScenario},
	{"center", "the distributed Command Center: load and power control over stage services", runCenter},
	{"stage", "one stage service of the distributed prototype", runStage},
	{"fleet", "the fleet coordinator: a cluster budget redistributed over node services", runFleet},
	{"node", "one node service of a federated fleet", runNode},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "powerchief:", err)
		os.Exit(1)
	}
}

// dispatch runs the subcommand args[0] names with the rest of args.
func dispatch(ctx context.Context, args []string, stdout io.Writer) error {
	for _, c := range commands {
		if len(args) > 0 && c.name == args[0] {
			return c.run(ctx, args[1:], stdout)
		}
	}
	fmt.Fprintln(os.Stderr, "usage: powerchief <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-7s %s\n", c.name, c.summary)
	}
	if len(args) == 0 {
		return errors.New("no subcommand")
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}
