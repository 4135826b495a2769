// Operational entry point: exempt from the library panic-freedom,
// console and determinism floor (DESIGN.md §7).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods
)]
//! `flower` — the command-line front end of the Flower reproduction.
//!
//! Mirrors the demo walkthrough of the paper's §4 as subcommands:
//!
//! ```text
//! flower run        # build a flow, attach controllers, run an episode
//! flower plan       # resource share analysis (§3.2, Fig. 4)
//! flower analyze    # workload dependency analysis (§3.1, Fig. 2 / Eq. 2)
//! flower monitor    # cross-platform monitoring snapshot (§3.4, Fig. 6)
//! flower trace      # summarize a structured event trace (flower-trace/v1)
//! flower fleet run  # run a multi-tenant fleet on one scheduler + budget
//! flower serve      # host a live episode behind flower-wire/v1
//! flower client     # line-mode client for a running `flower serve`
//! ```
//!
//! Run `flower help` (or any subcommand with bad options) for usage.

mod args;
mod commands;
mod live;

use args::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    // Only `fleet` takes a subcommand; a stray second positional on any
    // other command is the same error the parser used to raise.
    if let Some(sub) = args.subcommand.as_deref() {
        if args.command.as_deref() != Some("fleet") {
            eprintln!("error: unexpected argument '{sub}'\n");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    }
    let code = match args.command.as_deref() {
        Some("run") => commands::run(&args),
        Some("plan") => commands::plan(&args),
        Some("analyze") => commands::analyze(&args),
        Some("monitor") => commands::monitor(&args),
        Some("trace") => commands::trace(&args),
        Some("fleet") => commands::fleet(&args),
        Some("serve") => live::serve(&args),
        Some("client") => live::client(&args),
        Some("help") | None => {
            println!("{}", commands::usage());
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = code {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
