//! `paper <name>` prints one table or figure of the paper's evaluation,
//! the paper's numbers beside the reproduction's, then what this host
//! measured for it; with no name it lists the names (`rb_bench::TABLES`,
//! `rb_bench::MEASURED`).

use rb_bench::{TableFn, MEASURED, TABLES};

fn main() {
    let name = std::env::args().nth(1);
    let found: Vec<TableFn> = TABLES
        .iter()
        .chain(&MEASURED)
        .filter(|(n, _)| Some(*n) == name.as_deref())
        .map(|(_, tables)| *tables)
        .collect();
    if found.is_empty() {
        println!(
            "usage: paper <name>\nnames: {}\nmeasured: {}",
            names(&TABLES),
            names(&MEASURED)
        );
        if let Some(name) = name {
            eprintln!("paper: no table named `{name}`");
            std::process::exit(2);
        }
    }
    for tables in found {
        for table in tables() {
            println!("{table}");
        }
    }
}

fn names(tables: &[(&'static str, TableFn)]) -> String {
    tables.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
}
