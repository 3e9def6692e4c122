//! Affine expressions over named symbolic variables.
//!
//! The access analysis in `fgdsm-hpf` is parametric in the processor id and
//! in loop symbolics (e.g. the pivot column `k` in `lu`). Bounds of array
//! sections are therefore affine expressions `c0 + c1*v1 + ... + cn*vn`
//! evaluated at run time under an [`Env`], mirroring how the Omega library
//! "keeps access sets parametric with respect to processor number" (§4.1).

use std::collections::BTreeMap;
use std::fmt;

/// A symbolic variable, interned by name.
///
/// Variables are small and cheap to copy; two variables with the same name
/// are the same variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub &'static str);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A run-time binding of symbolic variables to integer values.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Env {
    bindings: BTreeMap<Var, i64>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `value`, returning `self` for chaining.
    pub fn bind(mut self, var: Var, value: i64) -> Self {
        self.bindings.insert(var, value);
        self
    }

    /// Bind `var` to `value` in place.
    pub fn set(&mut self, var: Var, value: i64) {
        self.bindings.insert(var, value);
    }

    /// Look up `var`.
    pub fn get(&self, var: Var) -> Option<i64> {
        self.bindings.get(&var).copied()
    }
}

/// An affine expression `constant + Σ coef_i · var_i`.
///
/// Supports the arithmetic the section algebra needs (adding a term or a
/// constant, scaling) and evaluation under an [`Env`]. Terms with zero coefficients
/// are kept normalized away so that structural equality is semantic
/// equality.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Affine {
    constant: i64,
    terms: BTreeMap<Var, i64>,
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Affine {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// The expression consisting of the single variable `v`.
    pub fn var(v: Var) -> Self {
        Affine::constant(0).plus_term(v, 1)
    }

    /// Returns `self + coef·v`.
    pub(crate) fn plus_term(mut self, v: Var, coef: i64) -> Self {
        let entry = self.terms.entry(v).or_insert(0);
        *entry += coef;
        if *entry == 0 {
            self.terms.remove(&v);
        }
        self
    }

    /// Returns `self + c`.
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Returns `k · self`.
    pub fn scale(&self, k: i64) -> Affine {
        let mut out = Affine::constant(self.constant * k);
        for (v, c) in &self.terms {
            out = out.plus_term(*v, c * k);
        }
        out
    }

    /// Evaluate under `env`.
    ///
    /// # Panics
    /// Panics if a variable in the expression is unbound; this indicates a
    /// planner bug (every symbolic a plan mentions must be bound before the
    /// plan executes).
    pub fn eval(&self, env: &Env) -> i64 {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            let x = env
                .get(*v)
                .unwrap_or_else(|| panic!("unbound symbolic variable `{v}` in affine expression"));
            acc += c * x;
        }
        acc
    }

    /// The variables appearing in the expression.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.keys().copied()
    }
}

impl From<i64> for Affine {
    fn from(c: i64) -> Self {
        Affine::constant(c)
    }
}

impl From<Var> for Affine {
    fn from(v: Var) -> Self {
        Affine::var(v)
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.constant != 0 || self.terms.is_empty() {
            write!(f, "{}", self.constant)?;
            first = false;
        }
        for (v, c) in &self.terms {
            if first {
                if *c == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, "+{v}")?;
                } else {
                    write!(f, "+{c}{v}")?;
                }
            } else if *c == -1 {
                write!(f, "-{v}")?;
            } else {
                write!(f, "{c}{v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_eval() {
        assert_eq!(Affine::constant(7).eval(&Env::new()), 7);
    }

    #[test]
    fn var_eval() {
        let p = Var("p");
        let env = Env::new().bind(p, 3);
        assert_eq!(Affine::var(p).eval(&env), 3);
    }

    #[test]
    fn plus_const_and_scale() {
        let k = Var("k");
        let e = Affine::var(k).scale(2).plus_const(5); // 2k + 5
        let f = e.scale(-1).plus_term(k, 3); // k - 5
        let env = Env::new().bind(k, 10);
        assert_eq!(e.eval(&env), 25);
        assert_eq!(f.eval(&env), 5);
    }

    #[test]
    fn zero_coefficients_normalize() {
        let k = Var("k");
        let e = Affine::var(k).plus_term(k, -1);
        assert_eq!(e.vars().count(), 0);
        assert_eq!(e, Affine::constant(0));
    }

    #[test]
    #[should_panic(expected = "unbound symbolic variable")]
    fn unbound_var_panics() {
        Affine::var(Var("nope")).eval(&Env::new());
    }

    #[test]
    fn display_forms() {
        let k = Var("k");
        assert_eq!(Affine::constant(3).to_string(), "3");
        assert_eq!(Affine::var(k).to_string(), "k");
        assert_eq!(Affine::var(k).scale(-2).plus_const(1).to_string(), "1-2k");
    }

    #[test]
    fn from_impls() {
        let a: Affine = 4.into();
        assert_eq!(a, Affine::constant(4));
        let p = Var("p");
        let b: Affine = p.into();
        assert_eq!(b.eval(&Env::new().bind(p, 2)), 2);
    }
}
