import benchenv

benchenv.prepare()
