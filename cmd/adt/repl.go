package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"algspec/internal/core"
	"algspec/internal/format"
	"algspec/internal/rewrite"
)

// cmdFmt formats specification files canonically. With -w the files are
// rewritten in place; otherwise the formatted text goes to out.
func cmdFmt(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
	fs.SetOutput(out)
	write := fs.Bool("w", false, "rewrite files in place instead of printing")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return exitf(exitUsage, "fmt requires at least one file")
	}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *write {
			if formatted != string(src) {
				if err := os.WriteFile(path, []byte(formatted), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "%s\n", path)
			}
			continue
		}
		fmt.Fprint(out, formatted)
	}
	return nil
}

// cmdRepl reads terms from stdin, one per line, and prints their normal
// forms. Lines starting with ':' are commands:
//
//	:spec NAME   switch the active specification
//	:trace       toggle step tracing
//	:specs       list loaded specifications
//	:quit        exit
func cmdRepl(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("repl", flag.ContinueOnError)
	fs.SetOutput(out)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "Queue", "initially active specification")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	env, err := loadEnv(*lib, fs.Args())
	if err != nil {
		return err
	}
	if _, err := lookupSpec(env, *specName); err != nil {
		return err
	}

	active := *specName
	tracing := false
	fmt.Fprintf(out, "adt repl — active spec %s; :help for commands\n", active)
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprintf(out, "%s> ", active)
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return nil
		case line == ":help":
			fmt.Fprintln(out, "commands: :spec NAME, :specs, :trace, :quit — anything else is a term")
		case line == ":specs":
			for _, n := range env.SortedNames() {
				fmt.Fprintf(out, "  %s\n", n)
			}
		case line == ":trace":
			tracing = !tracing
			fmt.Fprintf(out, "tracing %v\n", tracing)
		case strings.HasPrefix(line, ":spec "):
			name := strings.TrimSpace(strings.TrimPrefix(line, ":spec "))
			if _, ok := env.Get(name); !ok {
				fmt.Fprintf(out, "unknown specification %s\n", name)
				continue
			}
			active = name
		case strings.HasPrefix(line, ":"):
			fmt.Fprintf(out, "unknown command %s (:help)\n", line)
		default:
			evalLine(env, active, tracing, line, out)
		}
	}
}

func evalLine(env *core.Env, active string, tracing bool, line string, out io.Writer) {
	if tracing {
		step := 0
		nf, err := env.Trace(active, line, func(ts rewrite.TraceStep) {
			step++
			fmt.Fprintf(out, "  %3d [%s] %s -> %s\n", step, ts.Rule.Label, ts.Before, ts.After)
		})
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "= %s\n", nf)
		return
	}
	nf, err := env.Eval(active, line)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "= %s\n", nf)
}
