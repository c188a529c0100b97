// Command dmxcli is an interactive (or scripted) shell for the dmx
// engine's SQL-ish statement language.
//
// Usage:
//
//	dmxcli [-log wal.log] [-disk data.db] [-recover] [script.sql ...]
//
// With script files it executes them and exits; otherwise it reads
// statements from stdin, one per line (a trailing backslash continues a
// statement on the next line).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dmx"
)

func main() {
	logPath := flag.String("log", "", "persist the recovery log to this file")
	diskPath := flag.String("disk", "", "back the buffer pool with this file")
	doRecover := flag.Bool("recover", false, "replay the log at startup")
	flag.Parse()

	db, err := dmx.Open(dmx.Config{LogPath: *logPath, DiskPath: *diskPath, Recover: *doRecover})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmxcli:", err)
		os.Exit(1)
	}
	defer db.Close()
	session := db.NewSession()

	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmxcli:", err)
				os.Exit(1)
			}
			if err := run(db.Env, session, f, os.Stdout, false); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "dmxcli:", err)
				os.Exit(1)
			}
			f.Close()
		}
		return
	}
	fmt.Println("dmx shell — statements end at end of line; \\help lists shell commands; ctrl-D exits")
	if err := run(db.Env, session, os.Stdin, os.Stdout, true); err != nil {
		fmt.Fprintln(os.Stderr, "dmxcli:", err)
		os.Exit(1)
	}
}

// run executes statements from r, writing results to w. Lines starting
// with a backslash are shell commands (\metrics). In interactive mode
// errors are printed and the loop continues; in script mode the first
// error stops execution.
func run(env *dmx.Env, session *dmx.Session, r io.Reader, w io.Writer, interactive bool) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for {
		if interactive {
			if session.InTxn() {
				fmt.Fprint(w, "dmx*> ")
			} else {
				fmt.Fprint(w, "dmx> ")
			}
		}
		if !scanner.Scan() {
			return scanner.Err()
		}
		line := scanner.Text()
		if cont := strings.HasSuffix(line, "\\"); cont {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(line)
		stmt := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmt == "" || strings.HasPrefix(stmt, "--") {
			continue
		}
		if strings.HasPrefix(stmt, "\\") {
			if err := command(env, session, w, stmt); err != nil {
				if interactive {
					fmt.Fprintln(w, "error:", err)
					continue
				}
				return err
			}
			continue
		}
		res, err := session.Exec(stmt)
		if err != nil {
			if interactive {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			return fmt.Errorf("%q: %w", stmt, err)
		}
		printResult(w, res)
	}
}

// command dispatches a backslash shell command.
func command(env *dmx.Env, session *dmx.Session, w io.Writer, stmt string) error {
	fields := strings.Fields(stmt)
	switch fields[0] {
	case "\\help":
		fmt.Fprint(w, helpText)
		return nil
	case "\\stat":
		return statCommand(session, w, fields[1:])
	case "\\top":
		return topCommand(session, w, fields[1:])
	case "\\metrics":
		raw, err := json.MarshalIndent(env.MetricsSnapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(raw))
		return nil
	case "\\trace":
		return traceCommand(env, w, fields[1:])
	case "\\serve":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\serve ADDR (e.g. \\serve 127.0.0.1:7654)")
		}
		addr, err := env.ServeDebug(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "debug server on http://%s (/metrics /traces /healthz /debug/pprof/)\n", addr)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try \\help)", fields[0])
	}
}

const helpText = `shell commands:
  \help            this text
  \stat VIEW       dump a system relation (activity, history, relations,
                   locks, lsm, buffer, traces, shards, metrics — or any
                   sys.* name)
  \top [N]         top transactions by lock wait (default 10)
  \metrics         engine counters as JSON
  \trace ...       transaction tracer (\trace on|off|show)
  \serve ADDR      start the debug HTTP server (/metrics, /traces,
                   /stat/<view>, /healthz, and Go profiles under
                   /debug/pprof/ for 'go tool pprof')
SQL statements run as typed; a trailing \ continues on the next line.
`

// statCommand dumps one system relation through the ordinary SQL path,
// so \stat shows exactly what a query over the view would.
func statCommand(session *dmx.Session, w io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: \\stat VIEW (e.g. \\stat activity; see \\help)")
	}
	view := args[0]
	if !strings.Contains(view, ".") {
		view = "sys.stat_" + view
	}
	res, err := session.Exec("SELECT * FROM " + view)
	if err != nil {
		return err
	}
	printResult(w, res)
	return nil
}

// topCommand lists the in-flight transactions that have burned the most
// time waiting on locks — the first thing to look at when the engine
// feels stuck.
func topCommand(session *dmx.Session, w io.Writer, args []string) error {
	n := 10
	if len(args) > 0 {
		if _, err := fmt.Sscanf(args[0], "%d", &n); err != nil || n <= 0 {
			return fmt.Errorf("usage: \\top [N] (N >= 1)")
		}
	}
	res, err := session.Exec(fmt.Sprintf(
		"SELECT id, state, lock_waits, lock_wait_ns, rows_read, rows_written "+
			"FROM sys.stat_activity ORDER BY lock_wait_ns DESC LIMIT %d", n))
	if err != nil {
		return err
	}
	printResult(w, res)
	return nil
}

// traceCommand controls the environment's transaction tracer:
//
//	\trace            current sampling state and counters
//	\trace on [RATE]  sample every transaction, or the given fraction
//	\trace off        stop sampling (slow-trace capture stays on)
//	\trace show [MIN] dump the completed-trace ring as JSON, optionally
//	                  only traces at least MIN long (e.g. \trace show 10ms)
func traceCommand(env *dmx.Env, w io.Writer, args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(w, env.Tracer.String())
		return nil
	}
	switch args[0] {
	case "on":
		rate := 1.0
		if len(args) > 1 {
			if _, err := fmt.Sscanf(args[1], "%g", &rate); err != nil || rate <= 0 || rate > 1 {
				return fmt.Errorf("bad sample rate %q (want a fraction in (0,1])", args[1])
			}
		}
		env.Tracer.SetSampleRate(rate)
		fmt.Fprintln(w, env.Tracer.String())
		return nil
	case "off":
		env.Tracer.SetSampleRate(0)
		fmt.Fprintln(w, env.Tracer.String())
		return nil
	case "show":
		var min time.Duration
		if len(args) > 1 {
			d, err := time.ParseDuration(args[1])
			if err != nil {
				return fmt.Errorf("bad min duration %q: %w", args[1], err)
			}
			min = d
		}
		traces := env.Tracer.Traces(min)
		raw, err := json.MarshalIndent(map[string]any{
			"stats":  env.Tracer.Stats(),
			"traces": traces,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(raw))
		return nil
	default:
		return fmt.Errorf("usage: \\trace [on [RATE] | off | show [MIN]]")
	}
}

func printResult(w io.Writer, res *dmx.Result) {
	switch {
	case res.Columns != nil:
		fmt.Fprintln(w, strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(cells, " | "))
		}
		fmt.Fprintf(w, "(%d rows", len(res.Rows))
		if res.Explain != "" {
			fmt.Fprintf(w, "; plan: %s", res.Explain)
		}
		fmt.Fprintln(w, ")")
	case res.Message != "":
		fmt.Fprint(w, res.Message)
		if res.Explain != "" {
			fmt.Fprintf(w, " (plan: %s)", res.Explain)
		}
		fmt.Fprintln(w)
	default:
		fmt.Fprintf(w, "(%d affected)\n", res.Affected)
	}
}
