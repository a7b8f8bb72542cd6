//! EXPERIMENTS.md's paper-vs-reproduction sections against the functions
//! that print them. A section headed with `paper <name>` quotes that
//! function's tables as markdown: every row (and header) it quotes must
//! be one the function returns, cell for cell at print precision. The
//! model, DES and sim numbers its prose quotes are rebuilt below from
//! the same rows and must appear verbatim. What `rb_bench::MEASURED`
//! prints is measured on this host and is held to nothing here.

use rb_bench::{paper, Table, TABLES};
use std::collections::HashMap;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// Collapses every run of whitespace, line breaks included, to a space.
fn squash(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `##` and `###` section as (heading, body).
fn sections() -> impl Iterator<Item = (&'static str, &'static str)> {
    DOC.split("\n## ")
        .flat_map(|s| s.split("\n### "))
        .map(|s| s.split_once('\n').unwrap_or((s, "")))
}

/// The leading number of a printed cell such as `2390 (2-stage n-fly)`.
fn lead(cell: &str) -> f64 {
    let token = cell.split(' ').next().unwrap_or(cell);
    token
        .parse()
        .unwrap_or_else(|_| panic!("`{cell}` leads with no number"))
}

/// Asserts the section whose heading starts with `$start` says the
/// formatted phrase, line breaks aside.
macro_rules! says {
    ($start:expr, $($phrase:tt)+) => {{
        let phrase = format!($($phrase)+);
        let (_, body) = sections().find(|(h, _)| h.starts_with($start)).expect($start);
        assert!(
            squash(body).contains(&squash(&phrase)),
            "EXPERIMENTS.md `{}` no longer says `{phrase}`",
            $start
        );
    }};
}

#[test]
fn experiments_md_quotes_what_paper_prints() {
    let tables: HashMap<&str, Vec<Table>> = std::thread::scope(|s| {
        let running: Vec<_> = TABLES
            .iter()
            .map(|(name, table)| (*name, s.spawn(table)))
            .collect();
        running
            .into_iter()
            .map(|(name, t)| (name, t.join().expect("table function")))
            .collect()
    });

    // Quoted table rows.
    let mut headed = Vec::new();
    for (heading, body) in sections() {
        let names: Vec<&str> = heading
            .split("`paper ")
            .skip(1)
            .filter_map(|s| s.split('`').next())
            .collect();
        if names.is_empty() {
            continue;
        }
        headed.extend(names.iter().copied());
        let printed: Vec<Vec<String>> = names
            .iter()
            .flat_map(|name| &tables[name])
            .flat_map(|t| {
                let header = t.header.iter().map(|h| h.to_string()).collect();
                std::iter::once(header).chain(t.rows.clone())
            })
            .map(|cells: Vec<String>| cells.iter().map(|c| squash(c)).collect())
            .collect();
        let quoted = body
            .lines()
            .filter(|line| line.starts_with('|') && !line.starts_with("|---"));
        let mut count = 0;
        for line in quoted {
            let cells: Vec<String> = line.trim_matches('|').split('|').map(squash).collect();
            assert!(
                printed.contains(&cells),
                "EXPERIMENTS.md `{heading}` quotes a row `paper {}` does not print:\n{line}",
                names.join("`/`paper ")
            );
            count += 1;
        }
        assert!(count > 0, "`{heading}` quotes no table");
    }
    for name in tables.keys() {
        assert!(headed.contains(name), "no section is headed `paper {name}`");
    }

    // Numbers the prose quotes.
    let t1 = &tables["table1"][0];
    let des = t1.rows.iter().zip(paper::TABLE1);
    let worst = des
        .map(|(row, (_, _, gbps))| (lead(&row[2]) / gbps - 1.0).abs() * 100.0)
        .fold(0.0, f64::max);
    says!("Table 1", "land within {worst:.1} % of the paper's");

    let t3 = &tables["table3"][0];
    says!("Table 3", "(→ {} cycles/packet)", t3.rows[0][3]);

    let f3 = &tables["fig3"][0];
    let mesh_to = |col: usize| {
        &f3.rows
            .iter()
            .rfind(|r| r[col].ends_with("(mesh)"))
            .unwrap()[0]
    };
    let [current, more_nics, faster] = [1, 2, 3].map(mesh_to);
    says!(
        "Fig. 3",
        "ends at **{current} / {more_nics}** external ports"
    );
    says!("Fig. 3", "stay mesh to {faster} ports");
    let row = |ports: &str| f3.rows.iter().find(|r| r[0] == ports).unwrap();
    let relays = |ports: &str| (lead(&row(ports)[1]) - lead(ports)) / lead(ports);
    let (n1024, n2048) = (relays("1024"), relays("2048"));
    says!(
        "Fig. 3",
        "{n1024:.2} intermediate servers per port at N = 1024 and {n2048:.2} at"
    );
    let at_1024 = row("1024");
    let cheapest = (1..=3)
        .map(|col| lead(&at_1024[col]))
        .fold(f64::INFINITY, f64::min);
    says!("Fig. 3", "(e.g. {} vs {cheapest} at N = 1024)", at_1024[4]);

    let pipeline = lead(&tables["fig6"][0].rows[0][1]);
    says!("Fig. 6", "which puts (a) at {pipeline}, not 1.2");

    let sizes = &tables["fig8"][0].rows;
    let bus_bound = sizes.iter().position(|r| r[3] != "CPU").unwrap();
    let (cpu, bus) = (&sizes[bus_bound - 1][0], &sizes[bus_bound][0]);
    says!("Fig. 8", "between {cpu} and {bus}");

    let sim = &tables["latency"][1];
    says!("§6.2 latency", "our {}-cycle routing", t3.rows[1][3]);
    let ceiling = lead(&sim.rows[0][1]) / lead(&sim.rows[3][1]);
    says!("§6.2 latency", "a {ceiling:.1}× lower CPU ceiling");

    let memory = &tables["fig10"][0].rows[0];
    let (fwd, rtr) = (&memory[2], &memory[3]);
    let extra_kb = (lead(rtr) - lead(fwd)) / 1e3;
    says!(
        "§5.3",
        "≈{extra_kb:.1} KB/packet of memory traffic ({rtr} vs {fwd} B/packet"
    );
}
