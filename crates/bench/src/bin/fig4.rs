//! Regenerates the paper's fig4 (see au_bench::experiments::fig4).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig4] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig4::run(scale);
}
