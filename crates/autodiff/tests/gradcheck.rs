//! Central finite-difference gradient checks for every differentiable op.
//!
//! Each test perturbs the *input* tensor elementwise and compares the
//! analytic tape gradient against a central difference. This is the
//! ground-truth safety net for all model training in the workspace.

use ema_autodiff::check::assert_gradients_close;
use ema_autodiff::Tape;
use ema_tensor::{Rng64, Tensor};

const TOL: f64 = 1e-5;

fn rand(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng64::seed_from(seed);
    Tensor::rand_normal(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn grad_add() {
    let x = rand(&[3, 4], 1);
    let other = rand(&[3, 4], 2);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let s = t.add(v, o);
        let sq = t.square(s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_sub_both_sides() {
    let x = rand(&[2, 3], 3);
    let other = rand(&[2, 3], 4);
    // x as minuend
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let s = t.sub(v, o);
        let sq = t.square(s);
        t.sum_all(sq)
    });
    // x as subtrahend
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let s = t.sub(o, v);
        let sq = t.square(s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_mul() {
    let x = rand(&[4], 5);
    let other = rand(&[4], 6);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let p = t.mul(v, o);
        t.sum_all(p)
    });
}

#[test]
fn grad_div_numerator_and_denominator() {
    let x = rand(&[4], 7).map(|v| v + 3.0); // keep away from zero
    let other = rand(&[4], 8).map(|v| v + 3.0);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let q = t.div(v, o);
        t.sum_all(q)
    });
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let q = t.div(o, v);
        t.sum_all(q)
    });
}

#[test]
fn grad_scale() {
    let x = rand(&[5], 9);
    assert_gradients_close(&x, TOL, |t, v| {
        let a = t.scale(v, -2.5);
        let sq = t.square(a);
        t.sum_all(sq)
    });
}

#[test]
fn grad_matmul_lhs_and_rhs() {
    let x = rand(&[3, 4], 10);
    let other = rand(&[4, 2], 11);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let p = t.matmul(v, o);
        let sq = t.square(p);
        t.sum_all(sq)
    });
    let x2 = rand(&[4, 2], 12);
    let lhs = rand(&[3, 4], 13);
    assert_gradients_close(&x2, TOL, |t, v| {
        let l = t.leaf(lhs.clone());
        let p = t.matmul(l, v);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_transpose() {
    let x = rand(&[3, 5], 14);
    let w = rand(&[3, 5], 15);
    assert_gradients_close(&x, TOL, |t, v| {
        let tr = t.transpose(v);
        let tr2 = t.transpose(tr);
        let wl = t.leaf(w.clone());
        let p = t.mul(tr2, wl);
        t.sum_all(p)
    });
}

#[test]
fn grad_tanh() {
    let x = rand(&[6], 16);
    assert_gradients_close(&x, TOL, |t, v| {
        let y = t.tanh(v);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_sigmoid() {
    let x = rand(&[6], 17);
    assert_gradients_close(&x, TOL, |t, v| {
        let y = t.sigmoid(v);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_relu_away_from_kink() {
    // Shift all values away from 0 so the finite difference is valid.
    let x = rand(&[8], 18).map(|v| if v.abs() < 0.1 { v + 0.5 } else { v });
    assert_gradients_close(&x, TOL, |t, v| {
        let y = t.relu(v);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_square() {
    let x = rand(&[7], 20);
    assert_gradients_close(&x, TOL, |t, v| {
        let y = t.square(v);
        t.sum_all(y)
    });
}

#[test]
fn grad_softmax_vector() {
    let x = rand(&[5], 21);
    let w = Tensor::from_vec1(vec![1.0, -2.0, 3.0, 0.5, 2.0]);
    assert_gradients_close(&x, TOL, |t, v| {
        let s = t.softmax_last(v);
        let wl = t.leaf(w.clone());
        let p = t.mul(s, wl);
        t.sum_all(p)
    });
}

#[test]
fn grad_softmax_matrix_rows() {
    let x = rand(&[3, 4], 22);
    let w = rand(&[3, 4], 23);
    assert_gradients_close(&x, TOL, |t, v| {
        let s = t.softmax_last(v);
        let wl = t.leaf(w.clone());
        let p = t.mul(s, wl);
        t.sum_all(p)
    });
}

#[test]
fn grad_mean_all() {
    let x = rand(&[4, 4], 24);
    assert_gradients_close(&x, TOL, |t, v| {
        let sq = t.square(v);
        t.mean_all(sq)
    });
}

#[test]
fn grad_add_row_broadcast_matrix_and_row() {
    let m = rand(&[4, 3], 25);
    let row = rand(&[3], 26);
    assert_gradients_close(&m, TOL, |t, v| {
        let r = t.leaf(row.clone());
        let y = t.add_row_broadcast(v, r);
        let sq = t.square(y);
        t.sum_all(sq)
    });
    assert_gradients_close(&row, TOL, |t, v| {
        let ml = t.leaf(m.clone());
        let y = t.add_row_broadcast(ml, v);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_hcat() {
    let x = rand(&[3, 2], 29);
    let other = rand(&[3, 4], 30);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let c = t.hcat(v, o);
        let sq = t.square(c);
        t.sum_all(sq)
    });
}

#[test]
fn grad_slices() {
    let x = rand(&[5, 4], 33);
    assert_gradients_close(&x, TOL, |t, v| {
        let s = t.slice_rows(v, 1, 4);
        let sq = t.square(s);
        t.sum_all(sq)
    });
    assert_gradients_close(&x, TOL, |t, v| {
        let s = t.slice_cols(v, 0, 2);
        let sq = t.square(s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_reshape() {
    let x = rand(&[2, 6], 34);
    let w = rand(&[3, 4], 35);
    assert_gradients_close(&x, TOL, |t, v| {
        let r = t.reshape(v, &[3, 4]);
        let wl = t.leaf(w.clone());
        let p = t.mul(r, wl);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_stack_rows() {
    let x = rand(&[4], 36);
    let other = rand(&[4], 37);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let m = t.stack_rows(&[v, o, v]); // reuse to test accumulation
        let sq = t.square(m);
        t.sum_all(sq)
    });
}

#[test]
fn grad_mse() {
    let x = rand(&[3, 4], 38);
    let target = rand(&[3, 4], 39);
    assert_gradients_close(&x, TOL, |t, v| {
        let tgt = t.leaf(target.clone());
        t.mse(v, tgt)
    });
}

#[test]
fn grad_gated_tanh() {
    let x = rand(&[4, 4], 43);
    let other = rand(&[4, 4], 44);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let g = t.gated_tanh(v, o);
        t.sum_all(g)
    });
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let g = t.gated_tanh(o, v);
        t.sum_all(g)
    });
}

#[test]
fn grad_deep_composition() {
    // A small MLP-like composition exercising many ops together.
    let x = rand(&[4, 3], 45);
    let w1 = rand(&[5, 3], 46);
    let b1 = rand(&[5], 47);
    let w2 = rand(&[2, 5], 48);
    let b2 = rand(&[2], 49);
    let target = rand(&[4, 2], 50);
    assert_gradients_close(&x, 1e-4, |t, v| {
        let w1l = t.leaf(w1.clone());
        let b1l = t.leaf(b1.clone());
        let w2l = t.leaf(w2.clone());
        let b2l = t.leaf(b2.clone());
        let h = t.linear(v, w1l, b1l);
        let a = t.tanh(h);
        let y = t.linear(a, w2l, b2l);
        let tgt = t.leaf(target.clone());
        t.mse(y, tgt)
    });
}

#[test]
fn grad_linear_weight() {
    // Check gradient w.r.t. the weight matrix too.
    let w = rand(&[5, 3], 51);
    let x = rand(&[4, 3], 52);
    let b = rand(&[5], 53);
    assert_gradients_close(&w, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let bl = t.leaf(b.clone());
        let y = t.linear(xl, v, bl);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_flatten() {
    let x = rand(&[3, 4], 56);
    let w = rand(&[12], 57);
    assert_gradients_close(&x, TOL, |t, v| {
        let f = t.flatten(v);
        let wl = t.leaf(w.clone());
        let p = t.mul(f, wl);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_dropout_with_fixed_mask() {
    // Recreate the mask RNG inside the closure so every finite-difference
    // evaluation sees the identical dropout mask — the masked graph is
    // then an ordinary differentiable function.
    let x = rand(&[4, 4], 61);
    assert_gradients_close(&x, TOL, |t, v| {
        let mut mask_rng = Rng64::seed_from(62);
        let d = t.dropout(v, 0.4, true, &mut mask_rng);
        let sq = t.square(d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_dropout_eval_mode_is_identity() {
    let x = rand(&[4, 4], 63);
    assert_gradients_close(&x, TOL, |t, v| {
        let mut mask_rng = Rng64::seed_from(64);
        let d = t.dropout(v, 0.4, false, &mut mask_rng);
        let sq = t.square(d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_matmul_nt_lhs_and_rhs() {
    let x = rand(&[3, 4], 67);
    let other = rand(&[2, 4], 68);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let p = t.matmul_nt(v, o);
        let sq = t.square(p);
        t.sum_all(sq)
    });
    assert_gradients_close(&other, TOL, |t, v| {
        let l = t.leaf(x.clone());
        let p = t.matmul_nt(l, v);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_addmm_all_three_parents() {
    // linear() now records a single fused Addmm node; check its gradient
    // against finite differences through every parent.
    let x = rand(&[4, 3], 69);
    let w = rand(&[5, 3], 70);
    let b = rand(&[5], 71);
    assert_gradients_close(&x, TOL, |t, v| {
        let wl = t.leaf(w.clone());
        let bl = t.leaf(b.clone());
        let y = t.linear(v, wl, bl);
        let sq = t.square(y);
        t.sum_all(sq)
    });
    assert_gradients_close(&w, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let bl = t.leaf(b.clone());
        let y = t.linear(xl, v, bl);
        let sq = t.square(y);
        t.sum_all(sq)
    });
    assert_gradients_close(&b, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let wl = t.leaf(w.clone());
        let y = t.linear(xl, wl, v);
        let sq = t.square(y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_lstm_cell_gates_and_state() {
    // [n=3, H=2] cell: perturb the pre-activation gates and the carry.
    let gates = rand(&[3, 8], 72);
    let c_prev = rand(&[3, 2], 73);
    let w = rand(&[3, 4], 74);
    assert_gradients_close(&gates, 1e-4, |t, v| {
        let c = t.leaf(c_prev.clone());
        let hc = t.lstm_cell(v, c);
        let wl = t.leaf(w.clone());
        let p = t.mul(hc, wl);
        t.sum_all(p)
    });
    assert_gradients_close(&c_prev, 1e-4, |t, v| {
        let g = t.leaf(gates.clone());
        let hc = t.lstm_cell(g, v);
        let wl = t.leaf(w.clone());
        let p = t.mul(hc, wl);
        t.sum_all(p)
    });
}

#[test]
fn grad_block_lhs_matmul_both_parents() {
    // Shared [2, 3] lhs against 3 window blocks of [3, 4]: the one-group
    // case of `group_block_lhs_matmul`.
    let lhs = rand(&[2, 3], 91);
    let x = rand(&[9, 4], 92);
    assert_gradients_close(&lhs, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let p = t.group_block_lhs_matmul([v], xl, &[3]);
        let sq = t.square(p);
        t.sum_all(sq)
    });
    assert_gradients_close(&x, TOL, |t, v| {
        let ll = t.leaf(lhs.clone());
        let p = t.group_block_lhs_matmul([ll], v, &[3]);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_block_matmul_both_parents() {
    // Per-window [2, 3] x [3, 4] products.
    let x = rand(&[6, 3], 93);
    let y = rand(&[9, 4], 94);
    assert_gradients_close(&x, TOL, |t, v| {
        let yl = t.leaf(y.clone());
        let p = t.block_matmul(v, yl, 3);
        let sq = t.square(p);
        t.sum_all(sq)
    });
    assert_gradients_close(&y, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let p = t.block_matmul(xl, v, 3);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_block_matmul_nt_both_parents() {
    // Per-window [2, 3] x [4, 3]ᵀ products.
    let x = rand(&[6, 3], 95);
    let y = rand(&[12, 3], 96);
    assert_gradients_close(&x, TOL, |t, v| {
        let yl = t.leaf(y.clone());
        let p = t.block_matmul_nt(v, yl, 3);
        let sq = t.square(p);
        t.sum_all(sq)
    });
    assert_gradients_close(&y, TOL, |t, v| {
        let xl = t.leaf(x.clone());
        let p = t.block_matmul_nt(xl, v, 3);
        let sq = t.square(p);
        t.sum_all(sq)
    });
}

#[test]
fn grad_stack_window_blocks() {
    // Two states of 2 windows x 3 rows x 2 cols; reuse one state to test
    // gradient accumulation across stack positions.
    let x = rand(&[6, 2], 97);
    let other = rand(&[6, 2], 98);
    assert_gradients_close(&x, TOL, |t, v| {
        let o = t.leaf(other.clone());
        let s = t.stack_window_blocks(&[v, o, v], 2);
        let sq = t.square(s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_dropout_masked() {
    let x = rand(&[4, 3], 99);
    let mask = {
        let mut rng = Rng64::seed_from(100);
        let mut m = Tensor::zeros(&[4, 3]);
        for v in m.data_mut() {
            if rng.bernoulli(0.6) {
                *v = 1.0 / 0.6;
            }
        }
        m
    };
    assert_gradients_close(&x, TOL, |t, v| {
        let d = t.dropout_masked(v, mask.clone());
        let sq = t.square(d);
        t.sum_all(sq)
    });
}

#[test]
fn tape_reuse_multiple_backwards() {
    // Two backward passes over the same tape agree.
    let tape = Tape::new();
    let x = tape.leaf(rand(&[3], 54));
    let y = tape.square(x);
    let loss = tape.sum_all(y);
    let g1 = tape.backward(loss);
    let g2 = tape.backward(loss);
    assert_eq!(g1.get(x).unwrap().data(), g2.get(x).unwrap().data());
}

#[test]
fn grad_group_linear_all_parents() {
    // A 3-group cohort stack with uneven row counts (3 + 1 + 2); check
    // the stacked input and every group's weight and bias.
    let rows = [3usize, 1, 2];
    let x = rand(&[6, 3], 101);
    let ws: Vec<Tensor> = (0..3).map(|b| rand(&[4, 3], 102 + b)).collect();
    let bs: Vec<Tensor> = (0..3).map(|b| rand(&[4], 105 + b)).collect();
    let build = |t: &Tape,
                 xv,
                 ws: &[Tensor],
                 bs: &[Tensor],
                 swap: Option<(usize, bool, ema_autodiff::Var)>| {
        let params: Vec<(ema_autodiff::Var, ema_autodiff::Var)> = ws
            .iter()
            .zip(bs)
            .enumerate()
            .map(|(g, (w, b))| match swap {
                Some((sg, is_bias, v)) if sg == g => {
                    if is_bias {
                        (t.leaf(w.clone()), v)
                    } else {
                        (v, t.leaf(b.clone()))
                    }
                }
                _ => (t.leaf(w.clone()), t.leaf(b.clone())),
            })
            .collect();
        let y = t.group_linear(xv, params, &rows);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &ws, &bs, None));
    for g in 0..3 {
        assert_gradients_close(&ws[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &ws, &bs, Some((g, false, v)))
        });
        assert_gradients_close(&bs[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &ws, &bs, Some((g, true, v)))
        });
    }
}

#[test]
fn grad_group_linear_blocks_all_parents() {
    // Mixed group sizes with multi-row window blocks (wins 2 + 1 + 3,
    // block_rows 2): the graph-model layout.
    let wins = [2usize, 1, 3];
    let x = rand(&[12, 3], 110);
    let ws: Vec<Tensor> = (0..3).map(|b| rand(&[4, 3], 111 + b)).collect();
    let bs: Vec<Tensor> = (0..3).map(|b| rand(&[4], 114 + b)).collect();
    let build = |t: &Tape,
                 xv,
                 ws: &[Tensor],
                 bs: &[Tensor],
                 swap: Option<(usize, bool, ema_autodiff::Var)>| {
        let params: Vec<(ema_autodiff::Var, ema_autodiff::Var)> = ws
            .iter()
            .zip(bs)
            .enumerate()
            .map(|(g, (w, b))| match swap {
                Some((sg, is_bias, v)) if sg == g => {
                    if is_bias {
                        (t.leaf(w.clone()), v)
                    } else {
                        (v, t.leaf(b.clone()))
                    }
                }
                _ => (t.leaf(w.clone()), t.leaf(b.clone())),
            })
            .collect();
        let y = t.group_linear_blocks(xv, params, &wins, 2);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &ws, &bs, None));
    for g in 0..3 {
        assert_gradients_close(&ws[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &ws, &bs, Some((g, false, v)))
        });
        assert_gradients_close(&bs[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &ws, &bs, Some((g, true, v)))
        });
    }
}

#[test]
fn grad_group_matmul_all_parents() {
    // wins 2 + 1 + 3, block_rows 2 → 12 stacked rows; per-group [3, 4]
    // right-hand sides.
    let wins = [2usize, 1, 3];
    let x = rand(&[12, 3], 120);
    let rs: Vec<Tensor> = (0..3).map(|b| rand(&[3, 4], 121 + b)).collect();
    let build = |t: &Tape, xv, rs: &[Tensor], swap: Option<(usize, ema_autodiff::Var)>| {
        let rhses: Vec<ema_autodiff::Var> = rs
            .iter()
            .enumerate()
            .map(|(g, r)| match swap {
                Some((sg, v)) if sg == g => v,
                _ => t.leaf(r.clone()),
            })
            .collect();
        let y = t.group_matmul(xv, rhses, &wins, 2);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &rs, None));
    for g in 0..3 {
        assert_gradients_close(&rs[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &rs, Some((g, v)))
        });
    }
}

#[test]
fn grad_group_matmul_grouped_all_parents() {
    // The grouped-replay variant (attention score layout: n = 1).
    let wins = [3usize, 2];
    let x = rand(&[5, 4], 130);
    let rs: Vec<Tensor> = (0..2).map(|b| rand(&[4, 1], 131 + b)).collect();
    let build = |t: &Tape, xv, rs: &[Tensor], swap: Option<(usize, ema_autodiff::Var)>| {
        let rhses: Vec<ema_autodiff::Var> = rs
            .iter()
            .enumerate()
            .map(|(g, r)| match swap {
                Some((sg, v)) if sg == g => v,
                _ => t.leaf(r.clone()),
            })
            .collect();
        let y = t.group_matmul_grouped(xv, rhses, &wins, 1);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &rs, None));
    for g in 0..2 {
        assert_gradients_close(&rs[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &rs, Some((g, v)))
        });
    }
}

#[test]
fn grad_group_matmul_nt_all_parents() {
    // wins 1 + 4 + 2, block_rows 3; per-group transposed [4, 2] weights.
    let wins = [1usize, 4, 2];
    let x = rand(&[21, 2], 140);
    let rs: Vec<Tensor> = (0..3).map(|b| rand(&[4, 2], 141 + b)).collect();
    let build = |t: &Tape, xv, rs: &[Tensor], swap: Option<(usize, ema_autodiff::Var)>| {
        let rhses: Vec<ema_autodiff::Var> = rs
            .iter()
            .enumerate()
            .map(|(g, r)| match swap {
                Some((sg, v)) if sg == g => v,
                _ => t.leaf(r.clone()),
            })
            .collect();
        let y = t.group_matmul_nt(xv, rhses, &wins, 3);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &rs, None));
    for g in 0..3 {
        assert_gradients_close(&rs[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &rs, Some((g, v)))
        });
    }
}

#[test]
fn grad_group_add_row_broadcast_all_parents() {
    // wins 2 + 3, block_rows 2 → 10 stacked rows; per-group [5] rows.
    let wins = [2usize, 3];
    let m = rand(&[10, 5], 150);
    let rs: Vec<Tensor> = (0..2).map(|b| rand(&[5], 151 + b)).collect();
    let build = |t: &Tape, mv, rs: &[Tensor], swap: Option<(usize, ema_autodiff::Var)>| {
        let rows: Vec<ema_autodiff::Var> = rs
            .iter()
            .enumerate()
            .map(|(g, r)| match swap {
                Some((sg, v)) if sg == g => v,
                _ => t.leaf(r.clone()),
            })
            .collect();
        let y = t.group_add_row_broadcast(mv, rows, &wins, 2);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&m, TOL, |t, v| build(t, v, &rs, None));
    for g in 0..2 {
        assert_gradients_close(&rs[g], TOL, |t, v| {
            let ml = t.leaf(m.clone());
            build(t, ml, &rs, Some((g, v)))
        });
    }
}

#[test]
fn grad_group_block_lhs_matmul_all_parents() {
    // wins 3 + 1 + 2 with rectangular [2, 3] per-group lhs matrices:
    // x is [Σ wins·3, 2] and the output [Σ wins·2, 2].
    let wins = [3usize, 1, 2];
    let x = rand(&[18, 2], 160);
    let ls: Vec<Tensor> = (0..3).map(|b| rand(&[2, 3], 161 + b)).collect();
    let build = |t: &Tape, xv, ls: &[Tensor], swap: Option<(usize, ema_autodiff::Var)>| {
        let lhses: Vec<ema_autodiff::Var> = ls
            .iter()
            .enumerate()
            .map(|(g, l)| match swap {
                Some((sg, v)) if sg == g => v,
                _ => t.leaf(l.clone()),
            })
            .collect();
        let y = t.group_block_lhs_matmul(lhses, xv, &wins);
        let sq = t.square(y);
        t.sum_all(sq)
    };
    assert_gradients_close(&x, TOL, |t, v| build(t, v, &ls, None));
    for g in 0..3 {
        assert_gradients_close(&ls[g], TOL, |t, v| {
            let xl = t.leaf(x.clone());
            build(t, xl, &ls, Some((g, v)))
        });
    }
}
