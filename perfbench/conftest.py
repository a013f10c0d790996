import bootstrap

bootstrap.prepare()
