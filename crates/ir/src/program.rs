//! Whole programs: functions, globals, and external declarations.

use crate::function::Function;
use crate::ids::{FuncId, MemObjId};
use crate::inst::ExternEffect;
use std::collections::HashMap;

/// A global variable or other statically named memory object.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Name of the object.
    pub name: String,
    /// Size in abstract words; `1` for scalars.
    pub size: u64,
}

/// A declared external function with a memory-effect summary.
#[derive(Clone, Debug, PartialEq)]
pub struct ExternFn {
    /// Name used at call sites.
    pub name: String,
    /// What the function may do to memory.
    pub effect: ExternEffect,
}

/// A whole program: the unit over which the parallelizer operates.
///
/// The paper stresses whole-program scope (§2.2): parallelism in SPEC
/// CINT2000 lives at or near the outermost loop, so the framework must see
/// and modify code across procedure boundaries. `Program` gives analyses
/// that visibility: every function, global, and external effect summary is
/// available to every pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Program name, used in diagnostics.
    pub name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
    externs: HashMap<String, ExternFn>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        let id = FuncId::new(self.functions.len() as u32);
        self.functions.push(func);
        id
    }

    /// Adds a global object of `size` abstract words and returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, size: u64) -> MemObjId {
        let id = MemObjId::new(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.into(),
            size,
        });
        id
    }

    /// Declares an external function with the given effect summary.
    pub fn declare_extern(&mut self, name: impl Into<String>, effect: ExternEffect) {
        let name = name.into();
        self.externs.insert(name.clone(), ExternFn { name, effect });
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId::new(i as u32))
    }

    /// Returns the global with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn global(&self, id: MemObjId) -> &Global {
        &self.globals[id.index()]
    }

    /// Looks up an external declaration by name.
    pub fn extern_fn(&self, name: &str) -> Option<&ExternFn> {
        self.externs.get(name)
    }

    /// Iterates over all function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId::new)
    }

    /// Iterates over all global object ids.
    pub fn global_ids(&self) -> impl Iterator<Item = MemObjId> + '_ {
        (0..self.globals.len() as u32).map(MemObjId::new)
    }

    /// The number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// The number of global memory objects.
    pub fn global_count(&self) -> usize {
        self.globals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_holds_functions_and_globals() {
        let mut p = Program::new("test");
        let g = p.add_global("seed", 1);
        let f = p.add_function(Function::new("main"));
        assert_eq!(p.global(g).name, "seed");
        assert_eq!(p.function(f).name, "main");
        assert_eq!(p.function_by_name("main"), Some(f));
        assert_eq!(p.function_by_name("missing"), None);
        assert_eq!(p.function_count(), 1);
        assert_eq!(p.global_count(), 1);
    }

    #[test]
    fn extern_declarations_are_queryable() {
        let mut p = Program::new("test");
        p.declare_extern(
            "malloc",
            ExternEffect {
                allocates: true,
                ..Default::default()
            },
        );
        assert!(p.extern_fn("malloc").unwrap().effect.allocates);
        assert!(p.extern_fn("free").is_none());
    }
}
