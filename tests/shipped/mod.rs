//! The shipped programs the P4 text hand-off tests read back
//! (`pipeline.rs`, `properties.rs`): the TNA and the v1model program of
//! every device of every application in `netcl_apps::all_apps()`, as the
//! compiler generates them, and each application's handwritten baseline.

use netcl::{CompileOptions, CompiledUnit, Compiler};
use netcl_apps::App;
use netcl_p4::P4Program;

/// Every application of `netcl_apps::all_apps()` with its compiled unit.
pub fn units() -> Vec<(App, CompiledUnit)> {
    let cc = Compiler::new(CompileOptions::default());
    (netcl_apps::all_apps().into_iter())
        .map(|app| {
            let unit = cc.compile(app.name, &app.netcl_source);
            let unit = unit.unwrap_or_else(|e| panic!("{}: {e}", app.name));
            (app, unit)
        })
        .collect()
}

/// `(label, device, program)`; a handwritten baseline runs at its
/// application's kernel device.
pub fn programs() -> Vec<(String, u16, P4Program)> {
    let mut programs = Vec::new();
    for (app, unit) in units() {
        for d in &unit.devices {
            let label = |dialect| format!("{} device {} {dialect}", app.name, d.device);
            programs.push((label("tna"), d.device, (*d.tna_p4).clone()));
            programs.push((label("v1model"), d.device, (*d.v1_p4).clone()));
        }
        programs.push((format!("{} handwritten", app.name), app.device, app.handwritten));
    }
    programs
}
