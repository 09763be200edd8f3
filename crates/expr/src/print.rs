//! C pretty-printing of expressions.
//!
//! Generated code targets either a full C compiler (infix operators) or the
//! restricted software-library style used on very small micro-controllers
//! where multi-byte arithmetic is provided by runtime routines (`ADD(x, y)`,
//! `EQ(x, y)`, ... — Section III-C1 lists ~30 such functions).

use crate::{BinOp, Expr, UnOp, Value};
use std::fmt::Write as _;

/// The rendering style for C expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CStyle {
    /// Ordinary infix C operators: `(a + b)`.
    #[default]
    Infix,
    /// Software-library calls: `ADD(a, b)`; used for 8-bit targets whose
    /// arithmetic is implemented by runtime routines.
    LibCalls,
}

impl Expr {
    /// Renders the expression as a C expression in the default infix style.
    ///
    /// # Examples
    ///
    /// ```
    /// use polis_expr::Expr;
    /// let e = Expr::var("a").add(Expr::int(1)).eq(Expr::var("b"));
    /// assert_eq!(e.to_c(), "((a + 1) == b)");
    /// ```
    pub fn to_c(&self) -> String {
        self.to_c_styled(CStyle::Infix)
    }

    /// Renders the expression in the requested [`CStyle`].
    pub fn to_c_styled(&self, style: CStyle) -> String {
        let mut out = String::new();
        write_c(&mut out, self, style);
        out
    }
}

fn write_c(out: &mut String, expr: &Expr, style: CStyle) {
    match expr {
        Expr::Const(Value::Bool(b)) => {
            let _ = write!(out, "{}", u8::from(*b));
        }
        Expr::Const(Value::Int(v)) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(name) => out.push_str(name),
        Expr::Unary(UnOp::Not, a) => {
            out.push_str("(!");
            write_c(out, a, style);
            out.push(')');
        }
        Expr::Unary(UnOp::Neg, a) => {
            out.push_str("(-");
            write_c(out, a, style);
            out.push(')');
        }
        Expr::Binary(op, a, b) => write_binop(out, *op, a, b, style),
        Expr::Ite(c, t, e) => {
            out.push('(');
            write_c(out, c, style);
            out.push_str(" ? ");
            write_c(out, t, style);
            out.push_str(" : ");
            write_c(out, e, style);
            out.push(')');
        }
    }
}

fn write_binop(out: &mut String, op: BinOp, a: &Expr, b: &Expr, style: CStyle) {
    let as_call = match style {
        CStyle::LibCalls => true,
        // MIN/MAX have no C operator, so they are always macro calls.
        CStyle::Infix => matches!(op, BinOp::Min | BinOp::Max),
    };
    if as_call {
        out.push_str(op.lib_name());
        out.push('(');
        write_c(out, a, style);
        out.push_str(", ");
        write_c(out, b, style);
        out.push(')');
        return;
    }
    // C leaves a zero divisor undefined; the model defines
    // `x / 0 == x % 0 == 0` (see the crate docs).
    match (op, b) {
        (BinOp::Div | BinOp::Rem, Expr::Const(Value::Int(0))) => out.push('0'),
        (BinOp::Div | BinOp::Rem, b) if !matches!(b, Expr::Const(_)) => {
            out.push('(');
            write_c(out, b, style);
            out.push_str(" != 0 ? ");
            write_infix(out, op, a, b, style);
            out.push_str(" : 0)");
        }
        _ => write_infix(out, op, a, b, style),
    }
}

fn write_infix(out: &mut String, op: BinOp, a: &Expr, b: &Expr, style: CStyle) {
    out.push('(');
    write_c(out, a, style);
    out.push(' ');
    out.push_str(op.c_symbol());
    out.push(' ');
    write_c(out, b, style);
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infix_rendering() {
        let e = Expr::var("x").add(Expr::int(1)).lt(Expr::var("y"));
        assert_eq!(e.to_c(), "((x + 1) < y)");
    }

    #[test]
    fn libcall_rendering() {
        let e = Expr::var("x").add(Expr::int(1)).lt(Expr::var("y"));
        assert_eq!(e.to_c_styled(CStyle::LibCalls), "LT(ADD(x, 1), y)");
    }

    #[test]
    fn min_max_are_calls_even_in_infix_style() {
        let e = Expr::var("x").min(Expr::var("y"));
        assert_eq!(e.to_c(), "MIN(x, y)");
        let e = Expr::var("x").max(Expr::int(0));
        assert_eq!(e.to_c(), "MAX(x, 0)");
    }

    #[test]
    fn division_is_zero_guarded_unless_the_divisor_is_a_nonzero_constant() {
        let e = Expr::var("a").div(Expr::var("b"));
        assert_eq!(e.to_c(), "(b != 0 ? (a / b) : 0)");
        let e = Expr::var("a").rem(Expr::var("b").sub(Expr::int(1)));
        assert_eq!(e.to_c(), "((b - 1) != 0 ? (a % (b - 1)) : 0)");
        assert_eq!(Expr::var("a").div(Expr::int(0)).to_c(), "0");
        assert_eq!(Expr::var("a").div(Expr::int(4)).to_c(), "(a / 4)");
        assert_eq!(Expr::var("a").rem(Expr::int(-3)).to_c(), "(a % -3)");
    }

    #[test]
    fn unary_and_ite_rendering() {
        let e = Expr::ite(Expr::var("p").not(), Expr::int(1), Expr::var("x").neg());
        assert_eq!(e.to_c(), "((!p) ? 1 : (-x))");
    }

    #[test]
    fn bool_constants_render_as_ints() {
        assert_eq!(Expr::bool(true).to_c(), "1");
        assert_eq!(Expr::bool(false).to_c(), "0");
    }

    #[test]
    fn display_matches_to_c() {
        let e = Expr::var("a").eq(Expr::int(3));
        assert_eq!(format!("{e}"), e.to_c());
    }
}
